package ext4

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// CrashBIO wraps a BlockIO and fails every write after the first
// FailAfter writes have been performed, simulating a power cut for
// journal-recovery tests. Reads continue to work.
type CrashBIO struct {
	Inner     BlockIO
	FailAfter int
	writes    int
}

// ReadBlocks implements BlockIO.
func (c *CrashBIO) ReadBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	return c.Inner.ReadBlocks(p, blk, n, buf)
}

// WriteBlocks implements BlockIO.
func (c *CrashBIO) WriteBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	if c.writes >= c.FailAfter {
		return fmt.Errorf("write block %d: %w", blk, ErrCrashed)
	}
	c.writes++
	return c.Inner.WriteBlocks(p, blk, n, buf)
}

// ZeroBlocks implements BlockIO.
func (c *CrashBIO) ZeroBlocks(p *sim.Proc, blk, n int64) error {
	if c.writes >= c.FailAfter {
		return fmt.Errorf("zero block %d: %w", blk, ErrCrashed)
	}
	c.writes++
	return c.Inner.ZeroBlocks(p, blk, n)
}

// Flush implements BlockIO.
func (c *CrashBIO) Flush(p *sim.Proc) error {
	if c.writes >= c.FailAfter {
		return ErrCrashed
	}
	return c.Inner.Flush(p)
}

// TestJournalRecoveryAtEveryCutPoint simulates a power cut after every
// possible write during a metadata-heavy operation and verifies that
// the remounted file system passes fsck and contains either the old or
// the new state — never a torn one.
func TestJournalRecoveryAtEveryCutPoint(t *testing.T) {
	// Dry run to learn how many writes the scenario performs.
	dryWrites := func() int {
		fs, _ := newFS(t)
		crash := &CrashBIO{Inner: fs.bio, FailAfter: 1 << 30}
		fs.bio = crash
		runScenario(t, fs, true)
		return crash.writes
	}()

	for cut := 0; cut <= dryWrites; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			fs, st := newFS(t)
			// Baseline state, fully committed.
			seedScenario(t, fs)
			crash := &CrashBIO{Inner: fs.bio, FailAfter: cut}
			fs.bio = crash
			runScenario(t, fs, false) // may fail partway: that's the point

			// Power cut. Remount from the raw store.
			fs2, err := Mount(&Direct{St: st}, 1, nil)
			if err != nil {
				t.Fatalf("remount after cut %d: %v", cut, err)
			}
			if err := fs2.Check(nil); err != nil {
				t.Fatalf("fsck after cut %d: %v", cut, err)
			}
			// The pre-existing committed file must always survive.
			in, err := fs2.Lookup(nil, "/stable", Root)
			if err != nil {
				t.Fatalf("committed file lost after cut %d: %v", cut, err)
			}
			got := make([]byte, 6)
			if _, err := fs2.ReadAt(nil, in, 0, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != "stable" {
				t.Fatalf("committed data corrupted after cut %d: %q", cut, got)
			}
			// The in-flight file is all-or-nothing at the metadata
			// level: if present it must resolve and have a coherent
			// extent map (Check covered that); data may be stale
			// (no data journaling, as in the paper).
			if in2, err := fs2.Lookup(nil, "/victim", Root); err == nil {
				if in2.Size < 0 || in2.Blocks() > in2.AllocatedBlocks() {
					t.Fatalf("torn inode after cut %d: size=%d", cut, in2.Size)
				}
			} else if !errors.Is(err, ErrNotExist) {
				t.Fatalf("lookup after cut %d: %v", cut, err)
			}
		})
	}
}

// seedScenario creates the committed baseline.
func seedScenario(t *testing.T, fs *FS) {
	t.Helper()
	in, err := fs.Create(nil, "/stable", 0o644, Root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt(nil, in, 0, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
}

// runScenario performs the metadata-heavy operation that gets cut.
func runScenario(t *testing.T, fs *FS, mustSucceed bool) {
	t.Helper()
	fail := func(err error) {
		if mustSucceed {
			t.Fatal(err)
		}
	}
	in, err := fs.Create(nil, "/victim", 0o644, Root)
	if err != nil {
		fail(err)
		return
	}
	if _, err := fs.WriteAt(nil, in, 0, bytes.Repeat([]byte{0x5a}, 3*BlockSize)); err != nil {
		fail(err)
		return
	}
	if err := fs.Truncate(nil, in, BlockSize); err != nil {
		fail(err)
		return
	}
	if err := fs.Commit(nil); err != nil {
		fail(err)
		return
	}
}

// TestModelBasedRandomOps runs a random operation sequence against the
// file system and an in-memory reference model, checking contents,
// fsck, and remount equivalence.
func TestModelBasedRandomOps(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fs, st := newFS(t)
			rng := rand.New(rand.NewSource(seed))
			model := map[string][]byte{}
			names := []string{"/a", "/b", "/c", "/d", "/e"}

			lookup := func(name string) *Inode {
				in, err := fs.Lookup(nil, name, Root)
				if err != nil {
					t.Fatalf("lookup %s: %v", name, err)
				}
				return in
			}

			for step := 0; step < 300; step++ {
				name := names[rng.Intn(len(names))]
				_, exists := model[name]
				switch op := rng.Intn(10); {
				case op < 4: // write at random offset
					if !exists {
						if _, err := fs.Create(nil, name, 0o644, Root); err != nil {
							t.Fatalf("create %s: %v", name, err)
						}
						model[name] = nil
					}
					off := rng.Int63n(6 * BlockSize)
					n := rng.Intn(3*BlockSize) + 1
					data := make([]byte, n)
					rng.Read(data)
					if _, err := fs.WriteAt(nil, lookup(name), off, data); err != nil {
						t.Fatalf("write %s: %v", name, err)
					}
					buf := model[name]
					if int64(len(buf)) < off+int64(n) {
						nb := make([]byte, off+int64(n))
						copy(nb, buf)
						buf = nb
					}
					copy(buf[off:], data)
					model[name] = buf
				case op < 6: // truncate
					if !exists {
						continue
					}
					size := rng.Int63n(4 * BlockSize)
					if err := fs.Truncate(nil, lookup(name), size); err != nil {
						t.Fatalf("truncate %s: %v", name, err)
					}
					buf := model[name]
					if int64(len(buf)) >= size {
						model[name] = buf[:size]
					} else {
						nb := make([]byte, size)
						copy(nb, buf)
						model[name] = nb
					}
				case op < 7: // unlink
					if !exists {
						continue
					}
					if err := fs.Unlink(nil, name, Root); err != nil {
						t.Fatalf("unlink %s: %v", name, err)
					}
					delete(model, name)
				case op < 8: // commit
					if err := fs.Commit(nil); err != nil {
						t.Fatal(err)
					}
				default: // verify one file
					if !exists {
						continue
					}
					in := lookup(name)
					want := model[name]
					if in.Size != int64(len(want)) {
						t.Fatalf("%s size = %d, model %d", name, in.Size, len(want))
					}
					got := make([]byte, len(want))
					if _, err := fs.ReadAt(nil, in, 0, got); err != nil {
						t.Fatalf("read %s: %v", name, err)
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("%s content diverged from model at step %d", name, step)
					}
				}
			}
			if err := fs.Commit(nil); err != nil {
				t.Fatal(err)
			}
			if err := fs.Check(nil); err != nil {
				t.Fatalf("fsck: %v", err)
			}

			// Remount and verify every file against the model.
			fs2, err := Mount(&Direct{St: st}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs2.Check(nil); err != nil {
				t.Fatalf("fsck after remount: %v", err)
			}
			for name, want := range model {
				in, err := fs2.Lookup(nil, name, Root)
				if err != nil {
					t.Fatalf("remount lookup %s: %v", name, err)
				}
				got := make([]byte, len(want))
				if _, err := fs2.ReadAt(nil, in, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s content diverged after remount", name)
				}
			}
		})
	}
}
