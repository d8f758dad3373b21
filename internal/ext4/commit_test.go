package ext4

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// slowBIO charges every block-I/O call a fixed virtual latency, so a
// proc inside a commit yields to others the way it does on the timed
// kernel block layer.
type slowBIO struct {
	BlockIO
	lat sim.Time
}

func (b *slowBIO) wait(p *sim.Proc) {
	if p != nil {
		p.Sleep(b.lat)
	}
}

func (b *slowBIO) ReadBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	b.wait(p)
	return b.BlockIO.ReadBlocks(p, blk, n, buf)
}

func (b *slowBIO) WriteBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	b.wait(p)
	return b.BlockIO.WriteBlocks(p, blk, n, buf)
}

// TestCommitOverlapsNamespaceChange creates a file while another
// proc's commit is waiting on its inode-table read. The new inode
// lives in an inode-table block that commit never staged; the commit
// must neither touch it nor drop it from the dirty set, and the
// creator's own commit must make it durable.
func TestCommitOverlapsNamespaceChange(t *testing.T) {
	fs, st := newFS(t)
	if _, err := fs.Mkdir(nil, "/d", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	a, err := fs.Create(nil, "/a", 0o644, Root)
	if err != nil {
		t.Fatal(err)
	}
	// Fillers push the next inode number into another table block.
	for i := 0; i < InodesPerBlock; i++ {
		if _, err := fs.Create(nil, fmt.Sprintf("/filler%d", i), 0o644, Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}

	s := sim.New()
	fs.bio = &slowBIO{BlockIO: fs.bio, lat: sim.Microsecond}
	fs.SetCommitLock(s.NewResourceOn(0, "jbd2", 1))
	dataA := bytes.Repeat([]byte{0xa}, BlockSize)
	dataB := bytes.Repeat([]byte{0xb}, BlockSize)
	var errs []error
	s.Spawn("committer", func(p *sim.Proc) {
		if _, err := fs.WriteAt(p, a, 0, dataA); err != nil {
			errs = append(errs, err)
			return
		}
		errs = append(errs, fs.Commit(p))
	})
	s.Spawn("creator", func(p *sim.Proc) {
		// Land inside the committer's inode-table read.
		p.Sleep(sim.Microsecond + sim.Microsecond/2)
		b, err := fs.Create(p, "/d/b", 0o644, Root)
		if err != nil {
			errs = append(errs, err)
			return
		}
		if _, err := fs.WriteAt(p, b, 0, dataB); err != nil {
			errs = append(errs, err)
			return
		}
		errs = append(errs, fs.Commit(p))
	})
	s.Run()
	s.Shutdown()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	fs2, err := Mount(&Direct{St: st}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs2.Check(nil); err != nil {
		t.Fatalf("fsck after remount: %v", err)
	}
	for path, want := range map[string][]byte{"/a": dataA, "/d/b": dataB} {
		in, err := fs2.Lookup(nil, path, Root)
		if err != nil {
			t.Fatalf("%s after remount: %v", path, err)
		}
		got := make([]byte, BlockSize)
		if n, err := fs2.ReadAt(nil, in, 0, got); err != nil || n != BlockSize || !bytes.Equal(got, want) {
			t.Fatalf("%s after remount: read %d bytes (%v), content match %v", path, n, err, bytes.Equal(got, want))
		}
	}
}
