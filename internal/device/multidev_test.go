package device

import (
	"testing"

	"repro/internal/iommu"
	"repro/internal/nvme"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// TestCrossDeviceVBADenied verifies the DevID check of paper Fig. 3:
// two SSDs attach to one IOMMU here (a booted machine gives each
// device its own IOMMU with every PASID registered on each, which
// denies the same way); a file's FTEs carry device 1's ID, so a
// request carrying that VBA on device 2's queue must be denied — "a
// malicious process does not use the VBA to access files on another
// device" (§3.4).
func TestCrossDeviceVBADenied(t *testing.T) {
	s := sim.New()
	u := iommu.New(iommu.DefaultConfig())

	cfg1 := OptaneP5800X(1 << 28)
	cfg2 := OptaneP5800X(1 << 28)
	cfg2.Name = "optane-2"
	cfg2.DevID = 2
	d1 := newDevice(s, cfg1)
	d2 := newDevice(s, cfg2)
	count2 := observe(d2)
	d1.AttachIOMMU(u)
	d2.AttachIOMMU(u)

	// Map a file on device 1 into the process.
	base := uint64(0x2000_0000_0000)
	ft := pagetable.NewFileTable(cfg1.DevID)
	ft.SetRun(0, 80, 2)
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(7, tab)

	// Put recognizable data at the same sectors of both devices.
	fill := func(d *SSD, b byte) {
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = b
		}
		if err := d.Store().WriteSectors(80, 8, buf); err != nil {
			t.Fatal(err)
		}
	}
	fill(d1, 0x11)
	fill(d2, 0x22)

	s.Spawn("app", func(p *sim.Proc) {
		q1, _ := d1.CreateQueue(7, 8)
		q2, _ := d2.CreateQueue(7, 8)
		buf := make([]byte, 4096)
		do := func(q *nvme.QueuePair) nvme.Status {
			if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf}); err != nil {
				t.Error(err)
				return nvme.StatusInternalError
			}
			for {
				if c, ok := q.PopCQE(); ok {
					return c.Status
				}
				q.CQReady.Wait(p)
			}
		}
		// Legitimate device: success, device 1's data.
		if st := do(q1); !st.OK() {
			t.Errorf("read on owning device: %v", st)
			return
		}
		if buf[0] != 0x11 {
			t.Errorf("read returned %#x, want device 1's data", buf[0])
			return
		}
		// Same VBA on the other device: denied, no data moved.
		buf[0] = 0
		if st := do(q2); st != nvme.StatusAccessDenied {
			t.Errorf("cross-device read = %v, want access-denied", st)
			return
		}
		if buf[0] == 0x22 {
			t.Error("cross-device read leaked device 2's data")
		}
	})
	s.Run()
	if n := count2("device_bytes_total", "dir", "read"); n != 0 {
		t.Fatalf("device 2 moved %d bytes despite denial", n)
	}
	s.Shutdown()
}

// TestTwoDevicesIndependentArbitration checks devices do not share
// dispatch state: saturating one leaves the other's latency intact.
func TestTwoDevicesIndependentArbitration(t *testing.T) {
	s := sim.New()
	d1 := newDevice(s, OptaneP5800X(1<<28))
	cfg2 := OptaneP5800X(1 << 28)
	cfg2.Name = "optane-2"
	d2 := newDevice(s, cfg2)

	var quietLat sim.Time
	s.Spawn("flood", func(p *sim.Proc) {
		q, _ := d1.CreateQueue(0, 256)
		buf := make([]byte, 4096)
		for i := 0; i < 500; i++ {
			if q.SQLen() < 128 {
				_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(i), SLBA: int64(i % 100 * 8), Sectors: 8, Buf: buf})
			}
			if _, ok := q.PopCQE(); !ok {
				q.CQReady.Wait(p)
			}
		}
	})
	s.Spawn("quiet", func(p *sim.Proc) {
		q, _ := d2.CreateQueue(0, 8)
		buf := make([]byte, 4096)
		p.Sleep(50 * sim.Microsecond)
		start := p.Now()
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 8, Buf: buf})
		for {
			if _, ok := q.PopCQE(); ok {
				break
			}
			q.CQReady.Wait(p)
		}
		quietLat = p.Now() - start
	})
	s.Run()
	if quietLat > 4200*sim.Nanosecond {
		t.Fatalf("idle device latency %v inflated by the other device's load", quietLat)
	}
	s.Shutdown()
}
