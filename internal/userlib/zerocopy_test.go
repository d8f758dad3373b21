package userlib

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The zero-copy contract: a direct transfer that is sector-aligned at
// both ends moves data between the device and the caller's buffer
// without touching the thread's DMA buffer; every other direct
// transfer stages through it. The tests fill the DMA buffer with a
// sentinel and check which ops disturbed it.

const (
	dmaSentinel = 0xa5 // fills the thread's DMA buffer
	bufSentinel = 0x5a // fills a caller buffer before a read
)

func fillDMA(th *Thread) {
	for i := range th.dma {
		th.dma[i] = dmaSentinel
	}
}

func dmaTouched(th *Thread) bool {
	for _, b := range th.dma {
		if b != dmaSentinel {
			return true
		}
	}
	return false
}

func sentinelBuf(n int) []byte { return bytes.Repeat([]byte{bufSentinel}, n) }

// zeroCopyRun seeds /f with data, opens it writable through UserLib
// on a fresh thread, and runs body inside the simulation.
func zeroCopyRun(t *testing.T, data []byte, body func(p *sim.Proc, e *env, th *Thread, fd int)) {
	t.Helper()
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", data)
		th, err := e.l.NewThread(p)
		if err != nil {
			t.Error(err)
			return
		}
		fd, err := e.l.Open(p, "/f", true)
		if err != nil {
			t.Error(err)
			return
		}
		if fs, _ := e.l.State(fd); !fs.Direct() {
			t.Error("expected direct interface")
			return
		}
		body(p, e, th, fd)
	})
	e.s.Run()
	e.s.Shutdown()
}

// kernelRead reads [off, off+n) of fd through the kernel path, the
// reference every direct-path result is checked against.
func kernelRead(t *testing.T, p *sim.Proc, e *env, fd int, off int64, n int) []byte {
	t.Helper()
	got := make([]byte, n)
	if _, err := e.l.Proc.Pread(p, fd, got, off); err != nil {
		t.Errorf("kernel read at %d: %v", off, err)
	}
	return got
}

// checkRead issues a direct Pread of len(want)+slack bytes into a
// sentinel-filled buffer and checks the count, the bytes, that the
// slack past EOF stayed untouched, and whether the DMA buffer was used.
func checkRead(t *testing.T, p *sim.Proc, th *Thread, fd int, off int64, want []byte, slack int, staged bool) {
	t.Helper()
	fillDMA(th)
	buf := sentinelBuf(len(want) + slack)
	n, err := th.Pread(p, fd, buf, off)
	if err != nil || n != len(want) {
		t.Errorf("pread %d@%d: n=%d err=%v, want n=%d", len(buf), off, n, err, len(want))
		return
	}
	if !bytes.Equal(buf[:n], want) {
		t.Errorf("pread %d@%d returned wrong bytes", len(buf), off)
	}
	if !bytes.Equal(buf[n:], sentinelBuf(slack)) {
		t.Errorf("pread %d@%d wrote past the %d bytes it returned", len(buf), off, n)
	}
	if dmaTouched(th) != staged {
		t.Errorf("pread %d@%d: DMA buffer used = %v, want %v", len(buf), off, !staged, staged)
	}
}

func TestAlignedDirectIOBypassesDMABuffer(t *testing.T) {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(data)
	zeroCopyRun(t, data, func(p *sim.Proc, e *env, th *Thread, fd int) {
		for _, c := range []struct{ off, n int64 }{
			{8192, 4096},       // the headline 4 KiB read
			{0, 64 << 10},      // one hog-sized read
			{512, 1536},        // sector- but not block-aligned
			{1 << 20, 3 << 20}, // chunked at half the DMA buffer
		} {
			checkRead(t, p, th, fd, c.off, data[c.off:c.off+c.n], 0, false)
		}
		// A read past EOF whose truncated length is still whole
		// sectors stays zero-copy and leaves the tail alone.
		checkRead(t, p, th, fd, int64(len(data))-4096, data[len(data)-4096:], 4096, false)

		for _, c := range []struct{ off, n int64 }{
			{4096, 4096},
			{1 << 20, 2 << 20}, // chunked at the DMA buffer size
		} {
			fillDMA(th)
			w := make([]byte, c.n)
			rand.New(rand.NewSource(c.off)).Read(w)
			if n, err := th.Pwrite(p, fd, w, c.off); err != nil || n != len(w) {
				t.Errorf("pwrite %d@%d: n=%d err=%v", c.n, c.off, n, err)
				return
			}
			if dmaTouched(th) {
				t.Errorf("aligned pwrite %d@%d staged through the DMA buffer", c.n, c.off)
			}
			if !bytes.Equal(kernelRead(t, p, e, fd, c.off, len(w)), w) {
				t.Errorf("aligned pwrite %d@%d: device holds wrong bytes", c.n, c.off)
			}
		}
		if e.l.FallbackOps != 0 {
			t.Errorf("fallbacks = %d, want 0", e.l.FallbackOps)
		}
	})
}

func TestUnalignedDirectIOStagesThroughDMABuffer(t *testing.T) {
	data := make([]byte, 10000) // the last sector is partial
	rand.New(rand.NewSource(2)).Read(data)
	zeroCopyRun(t, data, func(p *sim.Proc, e *env, th *Thread, fd int) {
		checkRead(t, p, th, fd, 100, data[100:1100], 0, true)
		checkRead(t, p, th, fd, 512, data[512:1000], 0, true)
		// Truncated at EOF to a non-sector length: bounces.
		checkRead(t, p, th, fd, 8192, data[8192:], 4096-(len(data)-8192), true)

		fillDMA(th)
		patch := []byte("tiny")
		if n, err := th.Pwrite(p, fd, patch, 1000); err != nil || n != len(patch) {
			t.Errorf("sub-sector pwrite: n=%d err=%v", n, err)
			return
		}
		if !dmaTouched(th) {
			t.Error("sub-sector pwrite skipped the RMW buffer")
		}
		want := append([]byte{}, data...)
		copy(want[1000:], patch)
		if !bytes.Equal(kernelRead(t, p, e, fd, 0, len(data)), want) {
			t.Error("RMW write clobbered or lost bytes")
		}
		if e.l.FallbackOps != 0 || e.l.DirectOps != 4 {
			t.Errorf("ops = %d direct / %d fallback, want 4/0", e.l.DirectOps, e.l.FallbackOps)
		}
	})
}

// TestZeroCopyFaultPaths pins that no error path exposes a partial
// transfer now that aligned ops hand the device the caller's buffer:
// a failed op leaves the buffer (or the medium) untouched, and an op
// that falls back holds exactly the kernel path's bytes.
func TestZeroCopyFaultPaths(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	const off, n = 8192, 4096
	// Each case arms its faults after the file is open on the direct
	// path, issues one aligned read and one aligned write, and reports
	// whether both ops should succeed.
	for _, c := range []struct {
		name  string
		rules func(th *Thread) []faults.Rule
		ok    bool // the op completes (retried or via fallback)
	}{
		{"media-once", func(*Thread) []faults.Rule {
			return []faults.Rule{{Site: "device/*/media", Count: 1}}
		}, true},
		{"media-user-queue", func(th *Thread) []faults.Rule {
			return []faults.Rule{{Site: "device/*/media", Queue: th.q.ID}}
		}, true},
		{"media-everywhere", func(*Thread) []faults.Rule {
			return []faults.Rule{{Site: "device/*/media"}}
		}, false},
		{"timeout-everywhere", func(*Thread) []faults.Rule {
			return []faults.Rule{{Site: "device/*/timeout", Delay: sim.Microsecond}}
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			zeroCopyRun(t, data, func(p *sim.Proc, e *env, th *Thread, fd int) {
				inj := faults.NewInjector(1, c.rules(th))
				e.m.SetFaults(inj)
				buf := sentinelBuf(n)
				_, rerr := th.Pread(p, fd, buf, off)
				w := bytes.Repeat([]byte{0xc3}, n)
				_, werr := th.Pwrite(p, fd, w, off)
				e.m.SetFaults(nil)
				if inj.Total() == 0 {
					t.Error("no fault fired")
					return
				}
				if c.ok {
					if rerr != nil || werr != nil {
						t.Errorf("read err %v, write err %v; want both to recover", rerr, werr)
					}
					if !bytes.Equal(buf, data[off:off+n]) {
						t.Error("recovered read holds wrong bytes")
					}
					if !bytes.Equal(kernelRead(t, p, e, fd, off, n), w) {
						t.Error("recovered write did not land")
					}
					return
				}
				if rerr == nil || werr == nil {
					t.Errorf("read err %v, write err %v; want both to fail", rerr, werr)
				}
				if !bytes.Equal(buf, sentinelBuf(n)) {
					t.Error("failed read wrote into the caller's buffer")
				}
				if !bytes.Equal(kernelRead(t, p, e, fd, off, n), data[off:off+n]) {
					t.Error("failed write reached the medium")
				}
			})
		})
	}

	t.Run("revoke", func(t *testing.T) {
		zeroCopyRun(t, data, func(p *sim.Proc, e *env, th *Thread, fd int) {
			// A kernel-interface open by another process revokes the
			// mapping; the next direct op faults, refmaps to VBA 0 and
			// falls back.
			other := e.m.NewProcess(ext4.Root)
			ofd, err := other.Open(p, "/f", false)
			if err != nil {
				t.Error(err)
				return
			}
			defer other.Close(p, ofd)
			buf := sentinelBuf(n)
			if got, err := th.Pread(p, fd, buf, off); err != nil || got != n {
				t.Errorf("fallback read: n=%d err=%v", got, err)
			}
			if !bytes.Equal(buf, kernelRead(t, p, e, fd, off, n)) {
				t.Error("fallback read differs from the kernel path's bytes")
			}
			w := bytes.Repeat([]byte{0x3c}, n)
			if got, err := th.Pwrite(p, fd, w, off+n); err != nil || got != n {
				t.Errorf("fallback write: n=%d err=%v", got, err)
			}
			if !bytes.Equal(kernelRead(t, p, e, fd, off+n, n), w) {
				t.Error("fallback write did not land")
			}
			if e.l.FallbackOps != 2 || e.l.DirectOps != 0 {
				t.Errorf("ops = %d direct / %d fallback, want 0/2", e.l.DirectOps, e.l.FallbackOps)
			}
		})
	})
}
