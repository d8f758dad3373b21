package experiments

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/userlib"
)

func init() {
	register("S2", "Supplemental: BypassD inside VMs via SR-IOV virtual functions (§5.2)", runS2)
}

// runS2 boots a host plus two guest machines on carved VF windows and
// measures the guest-side BypassD read latency against bare metal:
// the only added cost is the nested IOMMU walk, and the two guests
// share the device's media channels.
func runS2(o Options) (*Report, error) {
	ops := 200
	if o.Quick {
		ops = 60
	}

	// Two independent simulated worlds: the host+guests system and the
	// bare-metal reference. Fan them out as sweep cells.
	type point struct {
		guest1, guest2, guestSync sim.Time // cell 0
		bareSync, bareByp         sim.Time // cell 1
	}
	points, err := sweepMap(o, 2, func(i int) (point, error) {
		if i == 1 {
			bareSync, bareByp, err := runS1Device(o, device.OptaneP5800X(1<<30), ops)
			return point{bareSync: bareSync, bareByp: bareByp}, err
		}
		g1, g2, gs, err := runS2Guests(o, ops)
		return point{guest1: g1, guest2: g2, guestSync: gs}, err
	})
	if err != nil {
		return nil, err
	}

	tb := stats.NewTable("S2: 4KB BypassD read latency, bare metal vs guest VMs",
		"configuration", "latency (µs)")
	tb.AddRow("bare metal, sync kernel path", points[1].bareSync.Micros())
	tb.AddRow("bare metal, bypassd", points[1].bareByp.Micros())
	tb.AddRow("guest VM 1, bypassd (nested walk)", points[0].guest1.Micros())
	tb.AddRow("guest VM 2, bypassd (nested walk)", points[0].guest2.Micros())
	tb.AddRow("guest VM 1, sync kernel path", points[0].guestSync.Micros())
	return &Report{ID: "S2", Title: "VMs on virtual functions", Tables: []*stats.Table{tb},
		Notes: []string{
			"guests keep the userspace fast path; the nested IOMMU walk adds ~0.3µs",
			"isolation is block-level (SR-IOV windows): no file sharing across VMs, as the paper states",
		}}, nil
}

// runS2Guests boots the host plus two guest machines and returns each
// guest's BypassD read latency and guest 1's sync-path reference.
func runS2Guests(o Options, ops int) (guest1, guest2, guestSync sim.Time, err error) {
	s := sim.New()
	defer s.Shutdown()
	host, err := kernel.NewMachineN(s, []device.Config{device.OptaneP5800X(1 << 30)}, nil, o.observers())
	if err != nil {
		return 0, 0, 0, err
	}
	const nested = 300 * sim.Nanosecond
	mkGuest := func(name string, devID uint8, baseMB int64) (*kernel.Machine, error) {
		vf, err := device.Carve(s, host.Dev, name, devID, baseMB<<20/512, (192<<20)/512)
		if err != nil {
			return nil, err
		}
		return kernel.NewGuestMachine(s, host, vf, nested)
	}
	g1, err := mkGuest("vf1", 10, 512)
	if err != nil {
		return 0, 0, 0, err
	}
	g2, err := mkGuest("vf2", 11, 768)
	if err != nil {
		return 0, 0, 0, err
	}

	lat := make([]sim.Time, 2)
	var runErr error
	done := 0
	for i, g := range []*kernel.Machine{g1, g2} {
		i, g := i, g
		s.Spawn(fmt.Sprintf("guest%d", i), func(p *sim.Proc) {
			defer func() { done++ }()
			pr := g.NewProcess(ext4.Root)
			fd, err := pr.Create(p, "/data", 0o644)
			if err != nil {
				runErr = err
				return
			}
			if err := pr.Fallocate(p, fd, 16<<20); err != nil {
				runErr = err
				return
			}
			_ = pr.Fsync(p, fd)
			_ = pr.Close(p, fd)

			lib := userlib.New(g.NewProcess(ext4.Root), userlib.Config{})
			th, err := lib.NewThread(p)
			if err != nil {
				runErr = err
				return
			}
			lfd, err := lib.Open(p, "/data", false)
			if err != nil {
				runErr = err
				return
			}
			rng := newXorshift(uint64(o.Seed) + uint64(i) + 31)
			buf := make([]byte, 4096)
			start := p.Now()
			for n := 0; n < ops; n++ {
				off := int64(rng.next()%(16<<20/4096)) * 4096
				if _, err := th.Pread(p, lfd, buf, off); err != nil {
					runErr = err
					return
				}
			}
			lat[i] = (p.Now() - start) / sim.Time(ops)
		})
	}
	s.Run()
	if runErr != nil {
		return 0, 0, 0, runErr
	}
	if done != 2 {
		return 0, 0, 0, fmt.Errorf("S2: %d/2 guests finished", done)
	}

	var sync1 sim.Time
	{
		// Guest sync-path reference (same VF, kernel interface).
		pr := g1.NewProcess(ext4.Root)
		s.Spawn("sync-ref", func(p *sim.Proc) {
			fd, err := pr.Open(p, "/data", false)
			if err != nil {
				runErr = err
				return
			}
			buf := make([]byte, 4096)
			rng := newXorshift(uint64(o.Seed) + 77)
			start := p.Now()
			for n := 0; n < ops; n++ {
				off := int64(rng.next()%(16<<20/4096)) * 4096
				if _, err := pr.Pread(p, fd, buf, off); err != nil {
					runErr = err
					return
				}
			}
			sync1 = (p.Now() - start) / sim.Time(ops)
		})
		s.Run()
		if runErr != nil {
			return 0, 0, 0, runErr
		}
	}
	return lat[0], lat[1], sync1, nil
}
