package spdk

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func setup(t *testing.T, s *sim.Sim) (*sim.CPUSet, *device.SSD) {
	t.Helper()
	return s.NewCPUSet(24), device.New(s, device.OptaneP5800X(1<<30))
}

func TestExclusiveClaim(t *testing.T) {
	s := sim.New()
	cpu, dev := setup(t, s)
	d1, err := Claim(cpu, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Claim(cpu, dev); err == nil {
		t.Fatal("second claim succeeded: SPDK must not share the device")
	}
	d1.Release()
	if _, err := Claim(cpu, dev); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	s.Shutdown()
}

func TestRawReadWriteAndLatency(t *testing.T) {
	s := sim.New()
	cpu, dev := setup(t, s)
	d, err := Claim(cpu, dev)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.CreateFile("data", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var lat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		q, err := d.NewQueue(p)
		if err != nil {
			t.Error(err)
			return
		}
		w := bytes.Repeat([]byte{0x42}, 4096)
		if _, err := q.WriteAt(p, r, w, 8192); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		start := p.Now()
		if _, err := q.ReadAt(p, r, buf, 8192); err != nil {
			t.Error(err)
			return
		}
		lat = p.Now() - start
		if !bytes.Equal(buf, w) {
			t.Error("data mismatch")
		}
	})
	s.Run()
	// SPDK 4K read: ~100 lib + 4020 device + ~440 copy ≈ 4.6µs —
	// the floor BypassD approaches within its 550ns translation.
	if lat < 4300 || lat > 4900 {
		t.Fatalf("spdk 4K read = %v, want ~4.6µs", lat)
	}
	s.Shutdown()
}

func TestRegionBounds(t *testing.T) {
	s := sim.New()
	cpu, dev := setup(t, s)
	d, _ := Claim(cpu, dev)
	r, _ := d.CreateFile("small", 4096)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.NewQueue(p)
		buf := make([]byte, 8192)
		if _, err := q.ReadAt(p, r, buf, 0); err == nil {
			t.Error("read beyond region succeeded")
		}
		if _, err := q.ReadAt(p, r, buf[:100], 0); err == nil {
			t.Error("unaligned read succeeded")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestNoIsolationBetweenRegions(t *testing.T) {
	// Documented (anti-)property: with SPDK, "files" are not
	// protected from each other — the driver can read any region.
	s := sim.New()
	cpu, dev := setup(t, s)
	d, _ := Claim(cpu, dev)
	a, _ := d.CreateFile("a", 4096)
	b, _ := d.CreateFile("b", 4096)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.NewQueue(p)
		secret := bytes.Repeat([]byte{0x99}, 4096)
		if _, err := q.WriteAt(p, a, secret, 0); err != nil {
			t.Error(err)
			return
		}
		// Read "b"'s region with an offset trick via raw do():
		// region b is adjacent; a whole-device region exposes a.
		all := Region{Sector: 0, Sectors: dev.Sectors()}
		buf := make([]byte, 4096)
		if _, err := q.ReadAt(p, all, buf, a.Sector*512); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(buf, secret) {
			t.Error("expected to read a's data through raw access (no protection in SPDK)")
		}
		_ = b
	})
	s.Run()
	s.Shutdown()
}

// TestTransfersBypassDMABuffer pins the zero-copy contract: every
// SPDK transfer is sector-aligned, so the device reads into and writes
// from the caller's buffer and the queue's DMA buffer stays untouched,
// also when a transfer is chunked at the DMA buffer's size.
func TestTransfersBypassDMABuffer(t *testing.T) {
	s := sim.New()
	cpu, dev := setup(t, s)
	d, _ := Claim(cpu, dev)
	r, _ := d.CreateFile("data", 4<<20)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.NewQueue(p)
		untouched := bytes.Repeat([]byte{0xa5}, len(q.dma))
		copy(q.dma, untouched)
		for _, c := range []struct{ off, n int64 }{
			{8192, 4096},
			{512, 1536},
			{1 << 20, 3 << 20}, // three DMA-buffer-sized commands
		} {
			w := make([]byte, c.n)
			rand.New(rand.NewSource(c.off)).Read(w)
			if n, err := q.WriteAt(p, r, w, c.off); err != nil || n != len(w) {
				t.Errorf("write %d@%d: n=%d err=%v", c.n, c.off, n, err)
				return
			}
			got := make([]byte, c.n)
			if n, err := q.ReadAt(p, r, got, c.off); err != nil || n != len(got) {
				t.Errorf("read %d@%d: n=%d err=%v", c.n, c.off, n, err)
				return
			}
			if !bytes.Equal(got, w) {
				t.Errorf("read %d@%d returned wrong bytes", c.n, c.off)
			}
			if !bytes.Equal(q.dma, untouched) {
				t.Errorf("transfer %d@%d staged through the DMA buffer", c.n, c.off)
			}
		}
	})
	s.Run()
	s.Shutdown()
}

// TestFailedTransferLeavesBuffersUntouched pins that handing the
// device the caller's buffer exposes no partial transfer: a read that
// fails (after its retries) leaves the caller's buffer as it was, and
// a failed write leaves the medium as it was.
func TestFailedTransferLeavesBuffersUntouched(t *testing.T) {
	for _, kind := range []string{faults.KindMedia, faults.KindTimeout} {
		t.Run(kind, func(t *testing.T) {
			s := sim.New()
			cpu, dev := setup(t, s)
			d, _ := Claim(cpu, dev)
			r, _ := d.CreateFile("data", 1<<20)
			s.Spawn("app", func(p *sim.Proc) {
				q, _ := d.NewQueue(p)
				old := bytes.Repeat([]byte{0x42}, 4096)
				if _, err := q.WriteAt(p, r, old, 8192); err != nil {
					t.Error(err)
					return
				}
				inj := faults.NewInjector(1, []faults.Rule{{Site: faults.DeviceSite("*", kind), Delay: sim.Microsecond}})
				reg := metrics.NewRegistry()
				inj.Bind(reg)
				dev.SetObservers(inj, nil)
				buf := bytes.Repeat([]byte{0x5a}, 4096)
				if _, err := q.ReadAt(p, r, buf, 8192); err == nil {
					t.Error("read succeeded under a persistent fault")
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{0x5a}, 4096)) {
					t.Error("failed read wrote into the caller's buffer")
				}
				if _, err := q.WriteAt(p, r, bytes.Repeat([]byte{0xc3}, 4096), 8192); err == nil {
					t.Error("write succeeded under a persistent fault")
				}
				dev.SetObservers(nil, nil)
				if _, total := faults.Fired(reg); total == 0 {
					t.Error("no fault fired")
				}
				got := make([]byte, 4096)
				if _, err := q.ReadAt(p, r, got, 8192); err != nil || !bytes.Equal(got, old) {
					t.Errorf("failed write reached the medium (err %v)", err)
				}
			})
			s.Run()
			s.Shutdown()
		})
	}
}
