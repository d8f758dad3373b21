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
	registerCells("F7", "Random read latency breakdown (Fig. 7)", cellsF7)
	registerCells("F8", "Effect of VBA translation latency on read bandwidth (Fig. 8)", cellsF8)
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
		res, err := fio.Run(fio.Spec{Seed: seed, Observers: o.at(seed).observers()}, []fio.Group{g})
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

func cellsF7(o Options) *cellReport {
	tb := &cellTable{
		title: "Fig. 7: random read latency breakdown",
		keys:  []string{"block size", "system"},
		cols:  plain("user (µs)", "kernel (µs)", "device (µs)", "total (µs)"),
	}
	for _, bs := range blockSizes(o.Quick) {
		for _, eng := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			tb.cells = append(tb.cells, Cell{
				key: []string{sizeLabel(int64(bs)), string(eng)},
				run: func(seed int64) ([]float64, error) {
					res, err := fio.Run(fio.Spec{Seed: seed, Observers: o.at(seed).observers()}, []fio.Group{{
						Name: "m", Engine: eng, BS: bs, Threads: 1,
						OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
					}})
					if err != nil {
						return nil, err
					}
					r := res["m"]
					var user, kern, dev sim.Time
					total := r.Lat.Mean()
					if eng == core.EngineBypassD {
						// Instrumented in UserLib: device = submit..complete
						// (incl. VBA translation); user = the rest.
						dev = r.DeviceNS / sim.Time(r.Ops)
						user = total - dev
					} else {
						// Sync path: software layers are the calibrated
						// constants; the rest is device time.
						kern = kernel.VFSCost + kernel.BlockLayer + kernel.DriverSubmit +
							sim.Time((bs-1)/4096)*kernel.VFSPerPage
						user = kernel.SyscallEnter + kernel.SyscallExit
						dev = total - kern - user
					}
					return []float64{user.Micros(), kern.Micros(), dev.Micros(), total.Micros()}, nil
				},
			})
		}
	}
	return &cellReport{title: "latency breakdown", tables: []*cellTable{tb},
		notes: []string{"bypassd 'user' is dominated by the user↔DMA copy at large blocks"}}
}

func cellsF8(o Options) *cellReport {
	tb := &cellTable{
		title: "Fig. 8: single-thread read bandwidth vs VBA translation latency",
		keys:  []string{"block size", "translation (ns)"},
		cols:  plain("bandwidth (GB/s)"),
	}
	for _, bs := range blockSizes(o.Quick) {
		// A delay of -1 is the sync reference row.
		for _, delay := range []sim.Time{0, 350, 550, 950, 1350, -1} {
			g := fio.Group{
				Name: "m", Engine: core.EngineBypassD, BS: bs, Threads: 1,
				OpsPerThread: microOps(o.Quick), FileBytes: 64 << 20,
			}
			label := fmt.Sprint(int64(delay))
			if delay < 0 {
				g.Engine, label = core.EngineSync, "sync"
			}
			tb.cells = append(tb.cells, Cell{
				key: []string{sizeLabel(int64(bs)), label},
				run: func(seed int64) ([]float64, error) {
					res, err := fio.Run(fio.Spec{IOMMU: func(c *iommu.Config) { c.FixedVBALatency = delay }, Seed: seed, Observers: o.at(seed).observers()}, []fio.Group{g})
					if err != nil {
						return nil, err
					}
					return []float64{res["m"].Bandwidth() / 1e9}, nil
				},
			})
		}
	}
	return &cellReport{title: "translation latency sensitivity", tables: []*cellTable{tb},
		notes: []string{"even at 1350ns, bypassd stays well above sync (paper Fig. 8)"}}
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
