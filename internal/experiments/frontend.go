package experiments

import (
	"fmt"

	"repro/internal/frontend"
	"repro/internal/stats"
)

func init() {
	registerCells("T10", "Service tier: goodput, shed rate, and sojourn tail vs. offered load, pool size, and admission policy", cellsT10)
}

// cellsT10 drives the frontend service tier through the offered-load x
// pool x admission sweep: every cell multiplexes the full user
// population (2^20 distinct simulated users in full mode) over its
// bounded worker pool against per-device kvell stores on BypassD. At
// half saturation all three policies look alike; at 2x the flat
// baseline's sojourn grows with the backlog while token pacing and
// CoDel shed the excess and keep the admitted tail inside the SLO.
// Flat admission is the failing baseline the two real policies are
// judged against.
func cellsT10(o Options) *cellReport {
	pools := []int{16, 64}
	devices, users := 4, uint64(1<<20)
	if o.Quick {
		pools, devices, users = []int{8}, 2, 6000
	}
	if o.Devices > 0 {
		devices = o.Devices
	}
	// The coverage walk guarantees every user appears once when the
	// non-hot arrivals (1 - HotFrac = 80%) cover the population; 13/10
	// leaves a 4% margin on top.
	requests := int(users) * 13 / 10
	tb := &cellTable{
		title: fmt.Sprintf("T10: service tier over %d SSDs (%d users, kvell/bypassd, 200µs SLO)", devices, users),
		keys:  []string{"offered (kops)", "pool", "policy"},
		cols: []column{{head: "goodput (kops)", ci: "goodput ci95"}, {head: "shed (%)", fmt: pct1},
			p50Col.in(singleTrial), p99Col, p999Col.in(singleTrial), sloCol, {head: "users", fmt: count}},
	}
	for _, frac := range []float64{0.5, 2.0} {
		for _, pool := range pools {
			for _, policy := range []frontend.Policy{frontend.AdmitAll, frontend.AdmitToken, frontend.AdmitCoDel} {
				fl := frontend.ServiceFleet(policy, frac, devices, pool, users, requests)
				fl.Faults = o.Faults
				tb.cells = append(tb.cells, Cell{
					key: []string{stats.Fmt(fl.RateOps / 1e3), fmt.Sprint(pool), string(policy)},
					run: func(seed int64) ([]float64, error) {
						res, _, err := frontend.RunCountedWorkers(seed, fl, o.workers())
						if err != nil {
							return nil, err
						}
						s := res.Sojourn().Summarize()
						return []float64{res.Goodput() / 1e3, res.ShedPct(), float64(s.P50), float64(s.P99),
							float64(s.P999), res.SLOCompliance(), float64(res.UsersServed())}, nil
					},
				})
			}
		}
	}
	return &cellReport{
		title: "frontend service tier",
		notes: []string{
			"offered load is a multiple of the pool's calibrated capacity (190 kops per worker); goodput counts completed requests over the active window, after shedding",
			"the flat 'none' policy is the baseline: at 2.0x it admits everything and its sojourn tail is pure backlog; token pacing sheds at the door for the lowest tail, CoDel sheds at dequeue for the highest goodput still inside the SLO",
			"the largest pool oversubscribes each SSD (the calibration anchor is linear in workers, the device is not): there the token bucket's rate estimate exceeds deliverable capacity and its admitted tail collapses with the backlog, while CoDel keys on measured delay and still holds the SLO — rate-based admission is only as good as its capacity estimate",
			"every cell is one deterministic schedule: per-device generators own every random draw, so the table is byte-identical at any -j and any -workers",
		},
		tables: []*cellTable{tb},
	}
}
