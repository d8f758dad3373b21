package kernel

import (
	"bytes"
	"testing"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// carveGuests boots a host plus two guests on VF windows.
func carveGuests(t *testing.T, s *sim.Sim) (*Machine, *Machine, *Machine) {
	t.Helper()
	host, err := NewMachineN(s, []device.Config{device.OptaneP5800X(1 << 30)}, nil, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	// Two 128 MiB VFs in the upper half of the device.
	mkGuest := func(name string, devID uint8, baseSector int64) *Machine {
		vf, err := device.Carve(s, host.Dev, name, devID, baseSector, (128<<20)/512)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGuestMachine(s, host, vf, 300*sim.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1 := mkGuest("vf1", 10, (512<<20)/512)
	g2 := mkGuest("vf2", 11, (768<<20)/512)
	return host, g1, g2
}

func TestGuestMachinesBootAndIsolate(t *testing.T) {
	s := sim.New()
	host, g1, g2 := carveGuests(t, s)
	s.Spawn("main", func(p *sim.Proc) {
		// Each guest writes its own file at the same path.
		for i, g := range []*Machine{g1, g2} {
			pr := g.NewProcess(ext4.Root)
			fd, err := pr.Create(p, "/vm-data", 0o644)
			if err != nil {
				t.Errorf("guest %d create: %v", i, err)
				return
			}
			payload := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if _, err := pr.Pwrite(p, fd, payload, 0); err != nil {
				t.Errorf("guest %d write: %v", i, err)
				return
			}
			if err := pr.Fsync(p, fd); err != nil {
				t.Errorf("guest %d fsync: %v", i, err)
				return
			}
			_ = pr.Close(p, fd)
		}
		// Each guest reads back its own bytes.
		for i, g := range []*Machine{g1, g2} {
			pr := g.NewProcess(ext4.Root)
			fd, err := pr.Open(p, "/vm-data", false)
			if err != nil {
				t.Errorf("guest %d open: %v", i, err)
				return
			}
			buf := make([]byte, 4096)
			if _, err := pr.Pread(p, fd, buf, 0); err != nil {
				t.Errorf("guest %d read: %v", i, err)
				return
			}
			if buf[0] != byte(i+1) {
				t.Errorf("guest %d saw %#x: cross-VM leakage", i, buf[0])
				return
			}
		}
		// The host's own namespace never saw either file.
		hostPr := host.NewProcess(ext4.Root)
		if _, err := hostPr.Open(p, "/vm-data", false); err == nil {
			t.Error("guest file visible in the host file system")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestGuestBypassDDirectPath(t *testing.T) {
	s := sim.New()
	_, g1, _ := carveGuests(t, s)
	var lat sim.Time
	s.Spawn("main", func(p *sim.Proc) {
		pr := g1.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/direct", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, 1<<20); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)

		dfd, base, err := pr.OpenBypass(p, "/direct", true)
		if err != nil || base == 0 {
			t.Errorf("guest OpenBypass: base=%d err=%v", base, err)
			return
		}
		_ = dfd
		q, err := pr.CreateUserQueue(p, 16)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		start := p.Now()
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("guest VBA read: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		lat = p.Now() - start
	})
	s.Run()
	// Nested translation adds ~300ns over the bare-metal 4.57µs.
	if lat < 4700*sim.Nanosecond || lat > 5100*sim.Nanosecond {
		t.Fatalf("guest direct read = %v, want ~4.87µs (bare metal + nested walk)", lat)
	}
	s.Shutdown()
}

func TestGuestCannotEscapeWindow(t *testing.T) {
	s := sim.New()
	host, g1, _ := carveGuests(t, s)
	s.Spawn("main", func(p *sim.Proc) {
		// Plant host data below the VF window.
		secret := bytes.Repeat([]byte{0xEE}, 4096)
		if err := host.Dev.Store().WriteSectors(100, 8, secret); err != nil {
			t.Error(err)
			return
		}
		pr := g1.NewProcess(ext4.Root)
		q, err := pr.CreateUserQueue(p, 8)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		// Raw LBA beyond the VF capacity: rejected at the device.
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: g1.Dev.Sectors() + 100, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if c.Status != nvme.StatusLBAOutOfRange {
					t.Errorf("out-of-window read = %v, want lba-out-of-range", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		// Raw LBA 100 *within* the window maps to host sector
		// window+100, not host sector 100: the secret is unreachable.
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 2, SLBA: 100, Sectors: 8, Buf: buf})
		for {
			if c, ok := q.PopCQE(); ok {
				if !c.Status.OK() {
					t.Errorf("in-window read failed: %v", c.Status)
				}
				break
			}
			q.CQReady.Wait(p)
		}
		if bytes.Equal(buf, secret) {
			t.Error("guest read the host's sector 100 through its window")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestVFsContendForSharedChannels(t *testing.T) {
	s := sim.New()
	_, g1, g2 := carveGuests(t, s)
	// Saturate guest 2's VF; guest 1's latency must rise (same media).
	var quiet sim.Time
	s.Spawn("noisy", func(p *sim.Proc) {
		pr := g2.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/noise", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, 8<<20); err != nil {
			t.Error(err)
			return
		}
		q, _ := pr.CreateUserQueue(p, 256)
		buf := make([]byte, 4096)
		in := 0
		for i := 0; i < 1200; i++ {
			for in >= 32 {
				if _, ok := q.PopCQE(); ok {
					in--
					continue
				}
				q.CQReady.Wait(p)
			}
			_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(i), SLBA: int64(i%1000) * 8, Sectors: 8, Buf: buf})
			in++
		}
	})
	s.Spawn("quiet", func(p *sim.Proc) {
		pr := g1.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/q", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, 1<<20); err != nil {
			t.Error(err)
			return
		}
		_ = fd
		q, _ := pr.CreateUserQueue(p, 8)
		buf := make([]byte, 4096)
		p.Sleep(200 * sim.Microsecond) // let the noise build
		start := p.Now()
		_ = q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 8, Buf: buf})
		for {
			if _, ok := q.PopCQE(); ok {
				break
			}
			q.CQReady.Wait(p)
		}
		quiet = p.Now() - start
	})
	s.Run()
	if quiet < 4500*sim.Nanosecond {
		t.Fatalf("VF isolation too perfect: %v — VFs must share media channels", quiet)
	}
	s.Shutdown()
}
