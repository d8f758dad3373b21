package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

// TestFullStackStress runs many processes with mixed engines doing
// concurrent reads, overwrites, appends, truncates, fsyncs, and
// closes against shared and private files, then verifies every file's
// content against an in-memory model and runs fsck. This is the
// whole-system invariant check: no engine may ever observe or produce
// bytes that diverge from the model, regardless of interleaving.
func TestFullStackStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStress(t, seed)
		})
	}
}

func runStress(t *testing.T, seed int64) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()

	const (
		workers  = 8
		files    = 4
		opsEach  = 60
		fileSize = 1 << 20
	)
	// model holds the expected content of each private file. Shared
	// files get disjoint per-worker stripes so the model stays exact
	// without modelling write races.
	type stripe struct {
		path   string
		base   int64 // worker's stripe start
		size   int64
		model  []byte
		worker int
	}

	var stripes []*stripe
	var runErr error
	done := 0

	sys.Sim.Spawn("setup", func(p *sim.Proc) {
		root := sys.NewProcess(ext4.Root)
		for f := 0; f < files; f++ {
			path := fmt.Sprintf("/shared%d", f)
			fd, err := root.Create(p, path, 0o666)
			if err != nil {
				runErr = err
				return
			}
			if err := root.Fallocate(p, fd, fileSize*int64(workers/files)); err != nil {
				runErr = err
				return
			}
			if err := root.Close(p, fd); err != nil {
				runErr = err
				return
			}
		}
		if err := root.Sync(p); err != nil {
			runErr = err
			return
		}

		engines := []Engine{EngineSync, EngineLibaio, EngineUring, EngineBypassD}
		for w := 0; w < workers; w++ {
			w := w
			st := &stripe{
				path:   fmt.Sprintf("/shared%d", w%files),
				base:   int64(w/files) * fileSize,
				size:   fileSize,
				model:  make([]byte, fileSize),
				worker: w,
			}
			stripes = append(stripes, st)
			engine := engines[w%len(engines)]
			pr := sys.NewProcess(ext4.Root)
			sys.Sim.Spawn(fmt.Sprintf("worker-%d", w), func(wp *sim.Proc) {
				defer func() { done++ }()
				rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
				io, err := sys.NewFileIO(wp, pr, engine)
				if err != nil {
					runErr = err
					return
				}
				fd, err := io.Open(wp, st.path, true)
				if err != nil {
					runErr = err
					return
				}
				buf := make([]byte, 16384)
				for op := 0; op < opsEach; op++ {
					if runErr != nil {
						return
					}
					off := rng.Int63n(st.size-16384) &^ 511 // sector aligned
					n := (rng.Int63n(15) + 1) * 512
					switch rng.Intn(4) {
					case 0, 1: // write
						rng.Read(buf[:n])
						if _, err := io.Pwrite(wp, fd, buf[:n], st.base+off); err != nil {
							runErr = fmt.Errorf("worker %d write: %w", w, err)
							return
						}
						copy(st.model[off:], buf[:n])
					case 2: // read + verify
						if _, err := io.Pread(wp, fd, buf[:n], st.base+off); err != nil {
							runErr = fmt.Errorf("worker %d read: %w", w, err)
							return
						}
						if !bytes.Equal(buf[:n], st.model[off:off+n]) {
							runErr = fmt.Errorf("worker %d (engine %s) diverged from model at off %d", w, engine, off)
							return
						}
					case 3: // fsync occasionally
						if op%16 == 5 {
							if err := io.Fsync(wp, fd); err != nil {
								runErr = fmt.Errorf("worker %d fsync: %w", w, err)
								return
							}
						}
					}
				}
				if err := io.Close(wp, fd); err != nil {
					runErr = fmt.Errorf("worker %d close: %w", w, err)
				}
			})
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if done != workers {
		t.Fatalf("only %d/%d workers finished", done, workers)
	}

	// Final verification pass: every stripe through the sync engine,
	// then fsck.
	sys.Sim.Spawn("verify", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		for _, st := range stripes {
			fd, err := pr.Open(p, st.path, false)
			if err != nil {
				runErr = err
				return
			}
			got := make([]byte, st.size)
			if _, err := pr.Pread(p, fd, got, st.base); err != nil {
				runErr = err
				return
			}
			if !bytes.Equal(got, st.model) {
				runErr = fmt.Errorf("final content of %s stripe %d diverged", st.path, st.worker)
				return
			}
			_ = pr.Close(p, fd)
		}
		if err := pr.Sync(p); err != nil {
			runErr = err
			return
		}
		if err := sys.M.FS.Check(p); err != nil {
			runErr = fmt.Errorf("fsck after stress: %w", err)
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
}

// TestRevocationStorm interleaves direct access with repeated
// kernel-interface opens, forcing revocation/fallback cycles, and
// checks data integrity throughout.
func TestRevocationStorm(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	var runErr error
	readsDone := 0

	sys.Sim.Spawn("main", func(p *sim.Proc) {
		root := sys.NewProcess(ext4.Root)
		data := make([]byte, 1<<20)
		rand.New(rand.NewSource(4)).Read(data)
		fd, err := root.Create(p, "/storm", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if _, err := root.Pwrite(p, fd, data, 0); err != nil {
			runErr = err
			return
		}
		_ = root.Fsync(p, fd)
		_ = root.Close(p, fd)

		// The reader keeps reading through UserLib while an opener
		// process repeatedly opens and closes the file through the
		// kernel interface.
		stop := false
		sys.Sim.Spawn("opener", func(q *sim.Proc) {
			opener := sys.NewProcess(ext4.Root)
			for i := 0; i < 10; i++ {
				ofd, err := opener.Open(q, "/storm", false)
				if err != nil {
					runErr = err
					return
				}
				q.Sleep(200 * sim.Microsecond)
				if err := opener.Close(q, ofd); err != nil {
					runErr = err
					return
				}
				q.Sleep(200 * sim.Microsecond)
			}
			stop = true
		})

		reader := sys.NewProcess(ext4.Root)
		lib := sys.Lib(reader)
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		rfd, err := lib.Open(p, "/storm", false)
		if err != nil {
			runErr = err
			return
		}
		buf := make([]byte, 4096)
		rng := rand.New(rand.NewSource(5))
		for !stop {
			off := rng.Int63n(1<<20-4096) &^ 4095
			if _, err := th.Pread(p, rfd, buf, off); err != nil {
				runErr = fmt.Errorf("read during storm: %w", err)
				return
			}
			if !bytes.Equal(buf, data[off:off+4096]) {
				runErr = fmt.Errorf("wrong data during revocation storm at %d", off)
				return
			}
			readsDone++
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readsDone < 100 {
		t.Fatalf("only %d reads completed", readsDone)
	}
}

// TestRevokeRestoreStorm is the revocation-storm property test: writer
// threads on the direct path race a storm process that keeps revoking
// their files' direct access. A revocation lasts until the file's last
// descriptor closes (§3.6), so each writer's periodic close and reopen
// is what restores direct access. The invariant is that every I/O
// completes — via the direct path or via the kernel fallback — with no
// error and no stale data, that descriptors reopened mid-storm
// re-attach cleanly rather than reusing a withdrawn mapping, and that
// a reopen after the storm is served directly again.
func TestRevokeRestoreStorm(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()

	const (
		workers  = 6
		opsEach  = 80
		fileSize = int64(1 << 20)
	)
	var runErr error
	var totalFallbacks int64
	done := 0

	sys.Sim.Spawn("main", func(p *sim.Proc) {
		root := sys.NewProcess(ext4.Root)
		paths := make([]string, workers)
		inodes := make([]*ext4.Inode, workers)
		for w := 0; w < workers; w++ {
			paths[w] = fmt.Sprintf("/storm%d", w)
			fd, err := root.Create(p, paths[w], 0o666)
			if err != nil {
				runErr = err
				return
			}
			if err := root.Fallocate(p, fd, fileSize); err != nil {
				runErr = err
				return
			}
			if err := root.Close(p, fd); err != nil {
				runErr = err
				return
			}
			in, err := sys.M.FS.Lookup(p, paths[w], ext4.Root)
			if err != nil {
				runErr = err
				return
			}
			inodes[w] = in
		}
		if err := root.Sync(p); err != nil {
			runErr = err
			return
		}

		stop := false
		sys.Sim.Spawn("storm", func(q *sim.Proc) {
			for round := 0; round < 25; round++ {
				for _, in := range inodes {
					sys.M.Revoke(in)
				}
				q.Sleep(300 * sim.Microsecond)
			}
			stop = true
		})

		for w := 0; w < workers; w++ {
			w := w
			pr := sys.NewProcess(ext4.Root)
			model := make([]byte, fileSize)
			sys.Sim.Spawn(fmt.Sprintf("writer-%d", w), func(wp *sim.Proc) {
				defer func() { done++ }()
				lib := sys.Lib(pr)
				defer func() { totalFallbacks += lib.Stats.Fallbacks }()
				th, err := lib.NewThread(wp)
				if err != nil {
					runErr = err
					return
				}
				fd, err := lib.Open(wp, paths[w], true)
				if err != nil {
					runErr = err
					return
				}
				rng := rand.New(rand.NewSource(int64(w) + 77))
				buf := make([]byte, 8192)
				for op := 0; op < opsEach || !stop; op++ {
					if runErr != nil || op > 100*opsEach {
						return
					}
					var off, n int64
					if op%5 == 4 {
						// Sub-sector write: partial-write RMW under storm.
						off = rng.Int63n(fileSize - 512)
						n = rng.Int63n(400) + 1
					} else {
						off = rng.Int63n(fileSize-8192) &^ 511
						n = (rng.Int63n(15) + 1) * 512
					}
					rng.Read(buf[:n])
					if _, err := th.Pwrite(wp, fd, buf[:n], off); err != nil {
						runErr = fmt.Errorf("writer %d pwrite at %d: %w", w, off, err)
						return
					}
					copy(model[off:], buf[:n])
					if _, err := th.Pread(wp, fd, buf[:n], off); err != nil {
						runErr = fmt.Errorf("writer %d pread at %d: %w", w, off, err)
						return
					}
					if !bytes.Equal(buf[:n], model[off:off+n]) {
						runErr = fmt.Errorf("writer %d stale read at %d during storm", w, off)
						return
					}
					if op%17 == 16 {
						// Reopen mid-storm: the close lifts the
						// revocation, and fmap() re-attaches afresh.
						if err := lib.Close(wp, fd); err != nil {
							runErr = fmt.Errorf("writer %d close: %w", w, err)
							return
						}
						if fd, err = lib.Open(wp, paths[w], true); err != nil {
							runErr = fmt.Errorf("writer %d reopen: %w", w, err)
							return
						}
					}
				}
				if err := th.Fsync(wp, fd); err != nil {
					runErr = fmt.Errorf("writer %d fsync: %w", w, err)
					return
				}
				// The storm is over: closing and reopening must give
				// the file back its direct path.
				if err := lib.Close(wp, fd); err != nil {
					runErr = fmt.Errorf("writer %d close: %w", w, err)
					return
				}
				if fd, err = lib.Open(wp, paths[w], true); err != nil {
					runErr = fmt.Errorf("writer %d reopen: %w", w, err)
					return
				}
				if fs, err := lib.State(fd); err != nil || !fs.Direct() {
					runErr = fmt.Errorf("writer %d: reopen after the storm stayed on the kernel path (%v)", w, err)
					return
				}
				if err := lib.Close(wp, fd); err != nil {
					runErr = fmt.Errorf("writer %d close: %w", w, err)
					return
				}

				// Final check through the kernel interface: committed
				// writes must be visible regardless of path taken.
				got := make([]byte, fileSize)
				kfd, err := pr.Open(wp, paths[w], false)
				if err != nil {
					runErr = err
					return
				}
				if _, err := pr.Pread(wp, kfd, got, 0); err != nil {
					runErr = err
					return
				}
				if !bytes.Equal(got, model) {
					runErr = fmt.Errorf("writer %d: final content diverged from model", w)
					return
				}
				_ = pr.Close(wp, kfd)
			})
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if done != workers {
		t.Fatalf("only %d/%d writers finished", done, workers)
	}

	sys.Sim.Spawn("fsck", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		if err := pr.Sync(p); err != nil {
			runErr = err
			return
		}
		if err := sys.M.FS.Check(p); err != nil {
			runErr = fmt.Errorf("fsck after revoke storm: %w", err)
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("storm stats: %d fallbacks across %d writers", totalFallbacks, workers)
}
