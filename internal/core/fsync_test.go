package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

// TestConcurrentAppendFsync has two procs on one file system each
// append 4 KiB blocks to their own log through the kernel path and
// fsync after every 8th append, so their journal commits overlap. A
// commit yields while it reads inode-table blocks; the other proc must
// neither see its freshly dirtied inode dropped from the transaction
// nor trip over a half-staged one. The crash image taken right after
// the run (no final sync) must remount fsck-clean with every
// fsync'd byte of both logs intact.
func TestConcurrentAppendFsync(t *testing.T) {
	const (
		capacity = 256 << 20
		writers  = 2
		appends  = 200
		every    = 8
		bs       = 4096
	)
	block := func(w, i int) []byte {
		b := make([]byte, bs)
		for off := 0; off < bs; off += 8 {
			binary.LittleEndian.PutUint64(b[off:], uint64(w)<<32|uint64(i))
		}
		return b
	}
	logPath := func(w int) string { return fmt.Sprintf("/log%d", w) }

	sys, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	synced := make([]int, writers) // appends covered by a completed fsync
	sys.Sim.Spawn("setup", func(p *sim.Proc) {
		// Create the logs up front: concurrent creates in one directory
		// are a separate matter from overlapping commits.
		// Filler files between the logs put their inodes in different
		// inode-table blocks, so one commit's staged blocks need not
		// cover the other writer's inode.
		root := sys.NewProcess(ext4.Root)
		for w := 0; w < writers; w++ {
			for f := 0; f <= ext4.InodesPerBlock; f++ {
				path := fmt.Sprintf("/filler%d.%d", w, f)
				if f == 0 {
					path = logPath(w)
				}
				fd, err := root.Create(p, path, 0o666)
				if err == nil {
					err = root.Close(p, fd)
				}
				if err != nil {
					runErr = err
					return
				}
			}
		}
		if err := root.Sync(p); err != nil {
			runErr = err
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for w := 0; w < writers; w++ {
		w := w
		pr := sys.NewProcess(ext4.Root)
		sys.Sim.Spawn(fmt.Sprintf("appender-%d", w), func(p *sim.Proc) {
			fd, err := pr.Open(p, logPath(w), true)
			if err != nil {
				runErr = err
				return
			}
			for i := 0; i < appends; i++ {
				if _, err := pr.Pwrite(p, fd, block(w, i), int64(i)*bs); err != nil {
					runErr = fmt.Errorf("writer %d append %d: %w", w, i, err)
					return
				}
				// The writers fsync half a cadence apart, so one
				// appends while the other commits.
				if (i+1+w*every/2)%every == 0 || i == appends-1 {
					if err := pr.Fsync(p, fd); err != nil {
						runErr = fmt.Errorf("writer %d fsync: %w", w, err)
						return
					}
					synced[w] = i + 1
				}
			}
		})
	}
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	img := sys.M.Dev.Store().Clone()
	sys.Sim.Shutdown()

	sys2, err := Boot(Config{Capacity: capacity, Image: img})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	defer sys2.Sim.Shutdown()
	sys2.Sim.Spawn("verify", func(p *sim.Proc) {
		if err := sys2.M.FS.Check(p); err != nil {
			runErr = fmt.Errorf("fsck after remount: %w", err)
			return
		}
		pr := sys2.NewProcess(ext4.Root)
		for w := 0; w < writers; w++ {
			fd, err := pr.Open(p, logPath(w), false)
			if err != nil {
				runErr = fmt.Errorf("log %d: %w", w, err)
				return
			}
			got := make([]byte, synced[w]*bs)
			if n, err := pr.Pread(p, fd, got, 0); err != nil || n != len(got) {
				runErr = fmt.Errorf("log %d: read %d of %d fsync'd bytes: %v", w, n, len(got), err)
				return
			}
			for i := 0; i < synced[w]; i++ {
				if !bytes.Equal(got[i*bs:(i+1)*bs], block(w, i)) {
					runErr = fmt.Errorf("log %d: fsync'd block %d lost after remount", w, i)
					return
				}
			}
		}
	})
	sys2.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	for w, n := range synced {
		if n != appends {
			t.Fatalf("writer %d: only %d of %d appends fsync'd", w, n, appends)
		}
	}
}
