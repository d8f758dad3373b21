package device

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestQueueLimit(t *testing.T) {
	s := sim.New()
	cfg := OptaneP5800X(1 << 28)
	cfg.MaxQueues = 3
	d := newDevice(s, cfg)
	for i := 0; i < 3; i++ {
		if _, err := d.CreateQueue(0, 4); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	if _, err := d.CreateQueue(0, 4); err == nil {
		t.Fatal("queue beyond MaxQueues created")
	}
	s.Shutdown()
}

func TestInvalidOpcodeRejected(t *testing.T) {
	s := sim.New()
	d := newDevice(s, OptaneP5800X(1<<28))
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 4)
		c := doIO(p, q, nvme.SQE{Opcode: nvme.Opcode(99), CID: 1})
		if c.Status != nvme.StatusInvalidField {
			t.Errorf("status = %v, want invalid-field", c.Status)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestZSSDAndTLCProfiles(t *testing.T) {
	for _, tc := range []struct {
		cfg     Config
		lo, hi  sim.Time
		devName string
	}{
		{ZSSD(1 << 28), 11 * sim.Microsecond, 13 * sim.Microsecond, "z-ssd"},
		{TLCFlash(1 << 28), 78 * sim.Microsecond, 81 * sim.Microsecond, "tlc-nvme"},
	} {
		s := sim.New()
		d := newDevice(s, tc.cfg)
		var lat sim.Time
		s.Spawn("app", func(p *sim.Proc) {
			q, _ := d.CreateQueue(0, 4)
			buf := make([]byte, 4096)
			start := p.Now()
			doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 8, Buf: buf})
			lat = p.Now() - start
		})
		s.Run()
		if lat < tc.lo || lat > tc.hi {
			t.Errorf("%s 4K read = %v, want [%v, %v]", tc.devName, lat, tc.lo, tc.hi)
		}
		s.Shutdown()
	}
}

func TestCarveValidation(t *testing.T) {
	s := sim.New()
	parent := newDevice(s, OptaneP5800X(1<<28))
	if _, err := Carve(s, parent, "bad", 9, -1, 100); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := Carve(s, parent, "bad", 9, 0, parent.Sectors()+1); err == nil {
		t.Error("oversized window accepted")
	}
	if _, err := Carve(s, parent, "ok", 9, 0, 1024); err != nil {
		t.Errorf("valid carve rejected: %v", err)
	}
	s.Shutdown()
}

func TestNestedCarveWindowsCompose(t *testing.T) {
	// A VF of a VF: windows add up.
	s := sim.New()
	parent := newDevice(s, OptaneP5800X(1<<28))
	vf1, err := Carve(s, parent, "vf1", 9, 1000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	vf2, err := Carve(s, vf1, "vf2", 10, 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := vf2.CreateQueue(0, 4)
		w := make([]byte, 512)
		w[0] = 0x42
		doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, SLBA: 7, Sectors: 1, Buf: w})
		// vf2 sector 7 = parent sector 1000+500+7.
		r := make([]byte, 512)
		if err := parent.Store().ReadSectors(1507, 1, r); err != nil {
			t.Error(err)
			return
		}
		if r[0] != 0x42 {
			t.Errorf("nested window write landed wrong (byte %#x)", r[0])
		}
	})
	s.Run()
	s.Shutdown()
}

func TestWindowedStoreIdentityForPF(t *testing.T) {
	s := sim.New()
	d := newDevice(s, OptaneP5800X(1<<28))
	if d.WindowedStore() != d.Store() {
		t.Fatal("physical function's windowed store should be the raw store")
	}
	vf, _ := Carve(s, d, "vf", 9, 64, 128)
	ws := vf.WindowedStore()
	if v, ok := ws.(*storage.View); !ok || v.Base != 64 || v.Span != 128 {
		t.Fatal("VF windowed store wrong span")
	}
	s.Shutdown()
}
