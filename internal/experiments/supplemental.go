package experiments

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/userlib"
)

func init() {
	registerCells("S1", "Supplemental: BypassD's benefit across device generations (§1/§2 motivation)", cellsS1)
}

// cellsS1 quantifies the paper's motivating claim — "as devices get
// faster, the relative [software] overhead will only worsen" — by
// measuring the sync-vs-BypassD gap on three device classes: a
// mainstream TLC SSD, a low-latency NAND device (Z-SSD class), and
// the Optane-class device of the evaluation.
func cellsS1(o Options) *cellReport {
	ops := 150
	if o.Quick {
		ops = 50
	}
	tb := &cellTable{
		title: "S1: 4KB random read, sync vs bypassd, by device class",
		keys:  []string{"device"},
		cols: append(plain("sync (µs)", "bypassd (µs)"),
			column{head: "improvement", fmt: func(v float64) string { return fmt.Sprintf("%.0f%%", v) }}),
	}
	for _, d := range []struct {
		label string
		cfg   device.Config
	}{
		{"tlc-nvme (~80µs reads)", device.TLCFlash(1 << 30)},
		{"z-ssd (~12µs reads)", device.ZSSD(1 << 30)},
		{"optane (~4µs reads)", device.OptaneP5800X(1 << 30)},
	} {
		tb.cells = append(tb.cells, Cell{key: []string{d.label}, run: func(seed int64) ([]float64, error) {
			syncLat, bypLat, err := runS1Device(o.at(seed), d.cfg, ops)
			if err != nil {
				return nil, fmt.Errorf("S1 %s: %w", d.label, err)
			}
			imp := 100 * (1 - float64(bypLat)/float64(syncLat))
			return []float64{syncLat.Micros(), bypLat.Micros(), imp}, nil
		}})
	}
	return &cellReport{title: "device generality", tables: []*cellTable{tb},
		notes: []string{"the software stack is a fixed ~3.8µs tax: negligible on TLC, dominant on Optane"}}
}

func runS1Device(o Options, dcfg device.Config, ops int) (syncLat, bypLat sim.Time, err error) {
	s := sim.New()
	defer s.Shutdown()
	m, err := kernel.NewMachineN(s, []device.Config{dcfg}, nil, o.observers())
	if err != nil {
		return 0, 0, err
	}
	err = m.Drive("s1", 1, func(p *sim.Proc, _ func(error)) error {
		pr := m.NewProcess(ext4.Root)
		if err := mkfile(p, pr, "/s1", 16<<20); err != nil {
			return err
		}

		rng := newXorshift(uint64(o.Seed) + 99)
		buf := make([]byte, 4096)

		sfd, err := pr.Open(p, "/s1", false)
		if err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < ops; i++ {
			off := int64(rng.next()%(16<<20/4096)) * 4096
			if _, err := pr.Pread(p, sfd, buf, off); err != nil {
				return err
			}
		}
		syncLat = (p.Now() - start) / sim.Time(ops)
		_ = pr.Close(p, sfd)

		lib := userlib.New(m.NewProcess(ext4.Root), userlib.Config{})
		th, err := lib.NewThread(p)
		if err != nil {
			return err
		}
		bfd, err := lib.Open(p, "/s1", false)
		if err != nil {
			return err
		}
		start = p.Now()
		for i := 0; i < ops; i++ {
			off := int64(rng.next()%(16<<20/4096)) * 4096
			if _, err := th.Pread(p, bfd, buf, off); err != nil {
				return err
			}
		}
		bypLat = (p.Now() - start) / sim.Time(ops)
		return nil
	})
	return syncLat, bypLat, err
}
