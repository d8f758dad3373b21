package userlib

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
)

const testCap = 1 << 30

// structures names the two mappings fmap() can build, keyed by the
// value of kernel.Process.ExtentFmap.
var structures = map[string]bool{"fte": false, "extent": true}

type env struct {
	s *sim.Sim
	m *kernel.Machine
	l *Lib
}

func newEnv(t *testing.T) *env {
	t.Helper()
	s := sim.New()
	m, err := kernel.NewMachineN(s, []device.Config{device.OptaneP5800X(testCap)}, nil, kernel.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	pr := m.NewProcess(ext4.Root)
	return &env{s: s, m: m, l: New(pr, Config{})}
}

// seed creates a file with data through the kernel.
func (e *env) seed(t *testing.T, p *sim.Proc, path string, data []byte) {
	t.Helper()
	fd, err := e.l.Proc.Create(p, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 0 {
		if _, err := e.l.Proc.Pwrite(p, fd, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.l.Proc.Fsync(p, fd); err != nil {
		t.Fatal(err)
	}
	if err := e.l.Proc.Close(p, fd); err != nil {
		t.Fatal(err)
	}
}

func TestDirectReadLatencyAndData(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(data)
	var lat sim.Time
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", data)
		th, err := e.l.NewThread(p)
		if err != nil {
			t.Error(err)
			return
		}
		fd, err := e.l.Open(p, "/f", false)
		if err != nil {
			t.Error(err)
			return
		}
		fs, _ := e.l.State(fd)
		if !fs.Direct() {
			t.Error("expected direct interface")
			return
		}
		buf := make([]byte, 4096)
		start := p.Now()
		n, err := th.Pread(p, fd, buf, 8192)
		lat = p.Now() - start
		if err != nil || n != 4096 {
			t.Errorf("pread: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(buf, data[8192:12288]) {
			t.Error("direct read returned wrong data")
		}
	})
	e.s.Run()
	// ~150 lib + 550 translation + 4020 device + ~440 copy ≈ 5.2µs —
	// well under the 7.85µs sync path, slightly above SPDK.
	if lat < 4800 || lat > 5600 {
		t.Fatalf("bypassd 4K read = %v, want ~5.2µs", lat)
	}
	if e.l.DirectOps != 1 || e.l.FallbackOps != 0 {
		t.Fatalf("ops = %d direct / %d fallback", e.l.DirectOps, e.l.FallbackOps)
	}
	e.s.Shutdown()
}

func TestOverwriteDirectAppendViaKernel(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 8192))
		th, _ := e.l.NewThread(p)
		fd, err := e.l.Open(p, "/f", true)
		if err != nil {
			t.Error(err)
			return
		}
		// Aligned overwrite: direct.
		w := bytes.Repeat([]byte{0xcd}, 4096)
		if n, err := th.Pwrite(p, fd, w, 4096); err != nil || n != 4096 {
			t.Errorf("overwrite: n=%d err=%v", n, err)
			return
		}
		if e.l.DirectOps != 1 {
			t.Errorf("overwrite not direct (direct=%d)", e.l.DirectOps)
		}
		// Append: kernel route, then visible to direct reads.
		app := bytes.Repeat([]byte{0xee}, 4096)
		if n, err := th.Pwrite(p, fd, app, 8192); err != nil || n != 4096 {
			t.Errorf("append: n=%d err=%v", n, err)
			return
		}
		if e.l.FallbackOps != 1 {
			t.Errorf("append did not go to kernel (fallback=%d)", e.l.FallbackOps)
		}
		fs, _ := e.l.State(fd)
		if fs.Size != 12288 {
			t.Errorf("tracked size = %d, want 12288", fs.Size)
		}
		got := make([]byte, 12288)
		if n, err := th.Pread(p, fd, got, 0); err != nil || n != 12288 {
			t.Errorf("read back: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(got[4096:8192], w) || !bytes.Equal(got[8192:], app) {
			t.Error("data mismatch after overwrite+append")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestPartialWriteRMW(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		base := bytes.Repeat([]byte{0x11}, 4096)
		e.seed(t, p, "/f", base)
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/f", true)
		patch := []byte("tiny")
		if n, err := th.Pwrite(p, fd, patch, 100); err != nil || n != 4 {
			t.Errorf("partial write: n=%d err=%v", n, err)
			return
		}
		got := make([]byte, 4096)
		if _, err := th.Pread(p, fd, got, 0); err != nil {
			t.Error(err)
			return
		}
		want := append([]byte{}, base...)
		copy(want[100:], patch)
		if !bytes.Equal(got, want) {
			t.Error("partial write clobbered surrounding bytes")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestPartialWritesToSameSectorSerialize(t *testing.T) {
	e := newEnv(t)
	var order []string
	e.s.Spawn("main", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 4096))
		fd, err := e.l.Open(p, "/f", true)
		if err != nil {
			t.Error(err)
			return
		}
		// Two threads write sub-sector ranges of the same sector.
		done := 0
		for i := 0; i < 2; i++ {
			i := i
			e.s.Spawn("writer", func(w *sim.Proc) {
				th, _ := e.l.NewThread(w)
				data := []byte{byte(i + 1)}
				if _, err := th.Pwrite(w, fd, data, int64(i*8)); err != nil {
					t.Error(err)
				}
				order = append(order, "done")
				done++
			})
		}
		_ = done
	})
	e.s.Run()
	if len(order) != 2 {
		t.Fatalf("writers finished = %d", len(order))
	}
	// Both single-byte writes must have landed (no lost update).
	var final [16]byte
	e2 := e
	s := e2.s
	_ = s
	checkSim := sim.New()
	_ = checkSim
	// Re-read through a fresh thread in the same sim is not possible
	// after Run; verify via the raw store instead.
	in, err := e.m.FS.Lookup(nil, "/f", ext4.Root)
	if err != nil {
		t.Fatal(err)
	}
	disk, ok := in.LookupBlock(0)
	if !ok {
		t.Fatal("no block 0")
	}
	buf := make([]byte, 512)
	if err := e.m.Dev.Store().ReadSectors(disk*ext4.SectorsPerBlock, 1, buf); err != nil {
		t.Fatal(err)
	}
	copy(final[:], buf)
	if final[0] != 1 || final[8] != 2 {
		t.Fatalf("lost update: bytes = %v", final[:9])
	}
	e.s.Shutdown()
}

// A kernel-interface open revokes a UserLib mapping of either
// structure: the next read faults, refmap gets VBA 0 and the file
// falls back to the kernel interface (paper §3.6).
func TestRevocationFallback(t *testing.T) {
	for name, extent := range structures {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			e.l.Proc.ExtentFmap = extent
			other := e.m.NewProcess(ext4.Root)
			e.s.Spawn("app", func(p *sim.Proc) {
				data := make([]byte, 8192)
				for i := range data {
					data[i] = byte(i)
				}
				e.seed(t, p, "/shared", data)
				th, _ := e.l.NewThread(p)
				fd, _ := e.l.Open(p, "/shared", false)
				buf := make([]byte, 4096)
				if _, err := th.Pread(p, fd, buf, 0); err != nil {
					t.Error(err)
					return
				}
				if e.l.DirectOps != 1 {
					t.Error("first read not direct")
				}
				// Another process opens kernel-interface: revoke.
				ofd, err := other.Open(p, "/shared", false)
				if err != nil {
					t.Error(err)
					return
				}
				// Next read: fault -> refmap -> VBA 0 -> kernel fallback.
				if n, err := th.Pread(p, fd, buf, 4096); err != nil || n != 4096 {
					t.Errorf("fallback read: n=%d err=%v", n, err)
					return
				}
				if !bytes.Equal(buf, data[4096:]) {
					t.Error("fallback read wrong data")
				}
				if e.l.Refmaps != 1 || e.l.FallbackOps != 1 {
					t.Errorf("refmaps=%d fallbacks=%d, want 1/1", e.l.Refmaps, e.l.FallbackOps)
				}
				fs, _ := e.l.State(fd)
				if fs.Direct() {
					t.Error("state still direct after revocation")
				}
				// Subsequent reads stay on the kernel path without faulting.
				if _, err := th.Pread(p, fd, buf, 0); err != nil {
					t.Error(err)
				}
				if e.l.FallbackOps != 2 {
					t.Errorf("fallbacks=%d, want 2", e.l.FallbackOps)
				}
				_ = other.Close(p, ofd)
			})
			e.s.Run()
			e.s.Shutdown()
		})
	}
}

// Processes that open one file through UserLib share it directly
// (paper §3.6): with either structure, no open revokes another's
// mapping and every read stays on the direct path.
func TestSharedOpenStaysDirect(t *testing.T) {
	for name, extent := range structures {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t)
			libs := []*Lib{e.l, New(e.m.NewProcess(ext4.Root), Config{})}
			e.s.Spawn("app", func(p *sim.Proc) {
				e.seed(t, p, "/shared", make([]byte, 8192))
				fds := make([]int, len(libs))
				for i, l := range libs {
					l.Proc.ExtentFmap = extent
					fd, err := l.Open(p, "/shared", false)
					if err != nil {
						t.Error(err)
						return
					}
					fds[i] = fd
				}
				buf := make([]byte, 4096)
				for i, l := range libs {
					th, err := l.NewThread(p)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := th.Pread(p, fds[i], buf, 4096); err != nil {
						t.Error(err)
						return
					}
					if fs, _ := l.State(fds[i]); !fs.Direct() || l.DirectOps != 1 {
						t.Errorf("process %d: direct=%v direct ops=%d, want true/1", i, fs.Direct(), l.DirectOps)
					}
				}
				in, err := e.m.FS.Lookup(p, "/shared", ext4.Root)
				if err != nil || e.m.Revoked(in) {
					t.Errorf("file revoked after shared opens (lookup err %v)", err)
				}
			})
			e.s.Run()
			e.s.Shutdown()
		})
	}
}

func TestLargeReadStreamsThroughDMABuffer(t *testing.T) {
	e := newEnv(t)
	data := make([]byte, 3<<20) // 3 MiB > 1 MiB DMA buffer
	rand.New(rand.NewSource(9)).Read(data)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/big", data)
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/big", false)
		got := make([]byte, len(data))
		n, err := th.Pread(p, fd, got, 0)
		if err != nil || n != len(data) {
			t.Errorf("large read: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(got, data) {
			t.Error("large read mismatch")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestOptimizedAppend(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/log", nil)
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/log", true)
		rec := bytes.Repeat([]byte{0xab}, 512)
		for i := 0; i < 16; i++ {
			if _, err := th.OptimizedAppend(p, fd, rec, 1<<20); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
		// Only the first append should have needed fallocate; the
		// rest are direct overwrites.
		if e.l.DirectOps < 15 {
			t.Errorf("direct ops = %d, want >= 15", e.l.DirectOps)
		}
		got := make([]byte, 16*512)
		if _, err := th.Pread(p, fd, got, 0); err != nil {
			t.Error(err)
			return
		}
		for i, b := range got {
			if b != 0xab {
				t.Errorf("byte %d = %#x", i, b)
				return
			}
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestSequentialReadWriteOffsets(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", []byte("abcdefgh"))
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/f", false)
		buf := make([]byte, 4)
		n1, _ := th.Read(p, fd, buf)
		first := string(buf[:n1])
		n2, _ := th.Read(p, fd, buf)
		second := string(buf[:n2])
		if first != "abcd" || second != "efgh" {
			t.Errorf("sequential reads = %q, %q", first, second)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestFsyncDirect(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 4096))
		th, _ := e.l.NewThread(p)
		fd, _ := e.l.Open(p, "/f", true)
		if _, err := th.Pwrite(p, fd, bytes.Repeat([]byte{9}, 4096), 0); err != nil {
			t.Error(err)
			return
		}
		if err := th.Fsync(p, fd); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := e.l.Close(p, fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

// The fixed retry budget bounds the backoff: it doubles from 5 µs over
// the three retries and never exceeds 20 µs, so no retry index can
// overflow sim.Time into a negative sleep.
func TestBackoffClampsAtMaxBackoff(t *testing.T) {
	want := []sim.Time{5 * sim.Microsecond, 10 * sim.Microsecond, 20 * sim.Microsecond}
	if len(want) != maxRetries {
		t.Fatalf("pinned %d backoffs for a budget of %d retries", len(want), maxRetries)
	}
	for n, w := range want {
		if got := backoff(n + 1); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", n+1, got, w)
		}
	}
}
