package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenants"
)

func init() {
	registerCells("T7", "Noisy neighbor: victim tail latency vs. bandwidth hogs, arbiter ablation", cellsT7)
	registerCells("T8", "SLO compliance vs. offered load, shared device (open-loop tenants)", cellsT8)
}

// optaneIOPS is the device's 4 KiB read saturation point (Fig. 9),
// the denominator for T8's offered-load fractions.
const optaneIOPS = 1.49e6

// cellsT7 pits one latency-sensitive 4 KiB tenant against a growing
// pack of large-block bandwidth hogs under each arbitration policy —
// the sharing evaluation the paper's symmetric fio jobs (Figs. 10/11)
// do not cover. The same seed drives every cell, so the arbiter
// columns are paired: identical arrival processes, different policy.
func cellsT7(o Options) *cellReport {
	hogCounts := []int{1, 4, 8, 16}
	victimOps, hogOps := 1000, 1000
	if o.Quick {
		hogCounts, victimOps, hogOps = []int{1, 8}, 250, 250
	}
	tb := &cellTable{
		title: "T7: victim 4KB read sojourn vs. noisy neighbors (open loop, 30µs SLO)",
		keys:  []string{"hogs", "victim", "arbiter"},
		cols:  []column{p50Col, p99Col, p999Col, sloCol, {head: "hogs (MB/s)"}},
	}
	for _, hogs := range hogCounts {
		for _, eng := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			for _, arb := range []string{"rr", "wrr", "prio"} {
				tb.cells = append(tb.cells, Cell{
					key: []string{fmt.Sprint(hogs), string(eng), arb},
					run: func(seed int64) ([]float64, error) {
						sc := tenants.NoisyNeighbor(arb, hogs, victimOps, hogOps)
						sc.Tenants[0].Engine = eng
						sc.Faults, sc.Metrics, sc.Trace = o.Faults, o.Metrics, o.Trace
						res, _, err := tenants.RunCountedWorkers(seed, sc, o.workers())
						if err != nil {
							return nil, err
						}
						var hogMBps float64
						for _, r := range res[1:] {
							hogMBps += r.Bandwidth() / 1e6
						}
						s := res[0].Sojourn.Summarize()
						return []float64{float64(s.P50), float64(s.P99), float64(s.P999),
							res[0].Compliance(), hogMBps}, nil
					},
				})
			}
		}
	}
	return &cellReport{
		title: "noisy-neighbor arbitration ablation",
		notes: []string{
			"flat RR serves every backlogged hog queue between victim grants; weighted-fair and priority arbitration hold the victim's p99 near its uncontended service time until the device itself saturates",
			"the victim's weight-16/priority-0 class rides its BypassD queues via nvme.QoS; the sync victim shares the kernel's single queue-0 class (paper §3.7's delegation has no per-tenant handle there)",
		},
		tables: []*cellTable{tb},
	}
}

// cellsT8 sweeps total offered load across equal tenants and reports
// SLO compliance — the open-loop saturation story: compliance holds
// until the knee, then collapses as queueing delay grows without
// bound.
func cellsT8(o Options) *cellReport {
	fractions, opsPer := []float64{0.2, 0.5, 0.8, 0.95, 1.1}, 1500
	if o.Quick {
		fractions, opsPer = []float64{0.3, 0.9}, 300
	}
	const nTenants = 4
	tb := &cellTable{
		title: "T8: SLO compliance vs. offered load (4 tenants, 4KB reads, 25µs SLO)",
		keys:  []string{"offered (kIOPS)", "engine"},
		cols: []column{{head: "achieved (kIOPS)", ci: "achieved ci95"}, p50Col, p99Col,
			p999Col.in(multiTrial), sloCol},
	}
	for _, frac := range fractions {
		for _, eng := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			tb.cells = append(tb.cells, Cell{
				key: []string{fmt.Sprintf("%.0f", frac*optaneIOPS/1e3), string(eng)},
				run: func(seed int64) ([]float64, error) {
					sc := tenants.SLOLoad(eng, nTenants, frac*optaneIOPS, opsPer)
					sc.Faults, sc.Metrics, sc.Trace = o.Faults, o.Metrics, o.Trace
					res, _, err := tenants.RunCountedWorkers(seed, sc, o.workers())
					if err != nil {
						return nil, err
					}
					agg := stats.NewHistogram()
					var ops, met int64
					start, end := res[0].Start, res[0].End
					for _, r := range res {
						agg.Merge(r.Sojourn)
						ops += r.Ops
						met += r.Compliant
						start, end = min(start, r.Start), max(end, r.End)
					}
					s := agg.Summarize()
					return []float64{stats.Throughput(ops, end-start) / 1e3,
						float64(s.P50), float64(s.P99), float64(s.P999),
						100 * float64(met) / float64(ops)}, nil
				},
			})
		}
	}
	return &cellReport{
		title: "SLO compliance vs. offered load",
		notes: []string{
			"open-loop arrivals keep offering load past the knee, so past ~95% of the Fig. 9 saturation point the backlog — and p99 — grows with run length instead of plateauing",
			"bypassd's lower per-op latency buys compliance headroom below the knee, but its reads serialize ATS translation before media (§3.4), so its IOPS ceiling sits ~12% under the physical-address kernel path's and its compliance collapses at a lower offered load",
		},
		tables: []*cellTable{tb},
	}
}
