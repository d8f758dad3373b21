package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("F5", "IOMMU overhead vs translations per ATS request (Fig. 5)", runF5)
	registerCells("F6", "FIO single-threaded random-access latency vs bandwidth (Fig. 6)", cellsF6)
	register("F7", "Random read latency breakdown (Fig. 7)", runF7)
	register("F8", "Effect of VBA translation latency on read bandwidth (Fig. 8)", runF8)
	registerCells("F9", "Random read latency and IOPS vs thread count (Fig. 9)", cellsF9)
}

func runF5(o Options) (*Report, error) {
	u := iommu.New(iommu.DefaultConfig())
	u.SetObservers(nil, o.Metrics)
	tb := stats.NewTable("Fig. 5: IOMMU overhead vs translations per request",
		"translations", "overhead (ns)")
	for n := 1; n <= 12; n++ {
		tb.AddRow(n, int64(u.WalkOverhead(n)))
	}
	return &Report{ID: "F5", Title: "ATS translation scaling", Tables: []*stats.Table{tb},
		Notes: []string{"flat 1-2, small step at 3, flat to 8 (one cacheline holds 8 PTEs)"}}, nil
}

// blockSizes is the Fig. 6/7/8 sweep.
func blockSizes(quick bool) []int {
	if quick {
		return []int{4096, 65536}
	}
	return []int{4096, 8192, 16384, 32768, 65536, 131072}
}

func microOps(quick bool) int {
	if quick {
		return 60
	}
	return 400
}

// fioP99Col is the p99 column F6 and F9 add to multi-trial tables.
var fioP99Col = column{head: "p99 (µs)", scale: 1e3, span: "p99 span (µs)", only: multiTrial}

// fioCell is one single-group fio run at a trial seed, with a fault
// injector seeded from that same seed so every trial draws its own
// faults and a one-trial replay reproduces them. Its values are the
// mean latency (µs), p99 latency (ns) and perf's throughput figure.
func fioCell(o Options, g fio.Group, perf func(*fio.GroupResult) float64) func(int64) ([]float64, error) {
	return func(seed int64) ([]float64, error) {
		res, err := fio.Run(fio.Spec{VBAFixedLatency: -1, Seed: seed, Observers: o.observersAt(seed)}, []fio.Group{g})
		if err != nil {
			return nil, fmt.Errorf("%s write=%t bs=%d threads=%d: %w", g.Engine, g.Write, g.BS, g.Threads, err)
		}
		r := res[g.Name]
		return []float64{r.Lat.Mean().Micros(), float64(r.Lat.Summarize().P99), perf(r)}, nil
	}
}

func cellsF6(o Options) *cellReport {
	rep := &cellReport{
		title: "single-thread latency vs bandwidth",
		notes: []string{"expected shape: bypassd ≈ spdk (+~0.55µs reads, ~0 writes); ~30% below sync/libaio; io_uring between"},
	}
	for _, kind := range []string{"read", "write"} {
		tb := &cellTable{
			title: fmt.Sprintf("Fig. 6: random %s, 1 thread, QD1", kind),
			keys:  []string{"block size", "engine"},
			cols: []column{{head: "latency (µs)", ci: "lat ci95"}, fioP99Col,
				{head: "bandwidth (GB/s)", ci: "bw ci95"}},
		}
		for _, bs := range blockSizes(o.Quick) {
			for _, eng := range core.AllEngines {
				tb.cells = append(tb.cells, Cell{
					key: []string{sizeLabel(int64(bs)), string(eng)},
					run: fioCell(o, fio.Group{Name: "m", Engine: eng, Write: kind == "write", BS: bs, Threads: 1,
						OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20},
						func(r *fio.GroupResult) float64 { return r.Bandwidth() / 1e9 }),
				})
			}
		}
		rep.tables = append(rep.tables, tb)
	}
	return rep
}

func runF7(o Options) (*Report, error) {
	type cell struct {
		bs  int
		eng core.Engine
	}
	var cells []cell
	for _, bs := range blockSizes(o.Quick) {
		for _, e := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			cells = append(cells, cell{bs, e})
		}
	}
	type split struct{ user, kern, dev, total sim.Time }
	splits, err := sweepMap(o, len(cells), func(i int) (split, error) {
		c := cells[i]
		res, err := fio.Run(fio.Spec{VBAFixedLatency: -1, Seed: o.Seed, Observers: o.observers()}, []fio.Group{{
			Name: "m", Engine: c.eng, BS: c.bs, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}})
		if err != nil {
			return split{}, err
		}
		r := res["m"]
		s := split{total: r.Lat.Mean()}
		if c.eng == core.EngineBypassD {
			// Instrumented in UserLib: device = submit..complete
			// (incl. VBA translation); user = the rest.
			s.dev = r.DeviceNS / sim.Time(r.Ops)
			s.user = s.total - s.dev
		} else {
			// Sync path: software layers are the calibrated
			// constants; the rest is device time.
			cfg := kernel.DefaultConfig()
			s.kern = cfg.VFSCost + cfg.BlockLayer + cfg.DriverSubmit +
				sim.Time((c.bs-1)/4096)*cfg.VFSPerPage
			s.user = cfg.SyscallEnter + cfg.SyscallExit
			s.dev = s.total - s.kern - s.user
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig. 7: random read latency breakdown",
		"block size", "system", "user (µs)", "kernel (µs)", "device (µs)", "total (µs)")
	for i, c := range cells {
		s := splits[i]
		tb.AddRow(sizeLabel(int64(c.bs)), string(c.eng), s.user.Micros(), s.kern.Micros(), s.dev.Micros(), s.total.Micros())
	}
	return &Report{ID: "F7", Title: "latency breakdown", Tables: []*stats.Table{tb},
		Notes: []string{"bypassd 'user' is dominated by the user↔DMA copy at large blocks"}}, nil
}

func runF8(o Options) (*Report, error) {
	delays := []sim.Time{0, 350, 550, 950, 1350}
	type cell struct {
		bs    int
		delay sim.Time // -1 marks the sync reference row
	}
	var cells []cell
	for _, bs := range blockSizes(o.Quick) {
		for _, d := range delays {
			cells = append(cells, cell{bs, d})
		}
		cells = append(cells, cell{bs, -1})
	}
	bws, err := sweepMap(o, len(cells), func(i int) (float64, error) {
		c := cells[i]
		g := fio.Group{
			Name: "m", Engine: core.EngineBypassD, BS: c.bs, Threads: 1,
			OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
		}
		delay := c.delay
		if c.delay < 0 { // sync reference
			g.Engine = core.EngineSync
			delay = -1
		}
		res, err := fio.Run(fio.Spec{VBAFixedLatency: delay, Seed: o.Seed, Observers: o.observers()}, []fio.Group{g})
		if err != nil {
			return 0, err
		}
		return res["m"].Bandwidth() / 1e9, nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Fig. 8: single-thread read bandwidth vs VBA translation latency",
		"block size", "translation (ns)", "bandwidth (GB/s)")
	for i, c := range cells {
		if c.delay < 0 {
			tb.AddRow(sizeLabel(int64(c.bs)), "sync", bws[i])
		} else {
			tb.AddRow(sizeLabel(int64(c.bs)), int64(c.delay), bws[i])
		}
	}
	return &Report{ID: "F8", Title: "translation latency sensitivity", Tables: []*stats.Table{tb},
		Notes: []string{"even at 1350ns, bypassd stays well above sync (paper Fig. 8)"}}, nil
}

func cellsF9(o Options) *cellReport {
	threads, ops := []int{1, 2, 4, 8, 12, 16, 20, 24}, 300
	if o.Quick {
		threads, ops = []int{1, 8, 16}, 80
	}
	tb := &cellTable{
		title: "Fig. 9: 4KB random read scaling",
		keys:  []string{"threads", "engine"},
		cols:  []column{{head: "latency (µs)", ci: "lat ci95"}, fioP99Col, {head: "IOPS (K)", ci: "iops ci95"}},
	}
	for _, n := range threads {
		for _, eng := range core.AllEngines {
			tb.cells = append(tb.cells, Cell{
				key: []string{fmt.Sprint(n), string(eng)},
				run: fioCell(o, fio.Group{Name: "m", Engine: eng, BS: 4096, Threads: n,
					OpsPerThread: ops, FileBytes: 16 << 20},
					func(r *fio.GroupResult) float64 { return r.IOPS() / 1000 }),
			})
		}
	}
	return &cellReport{
		title: "thread scaling",
		notes: []string{
			"bypassd/spdk flat until device saturation (~8 threads), kernel paths saturate ~12",
			"io_uring collapses past 12 threads: SQPOLL needs a second core per thread",
		},
		tables: []*cellTable{tb},
	}
}
