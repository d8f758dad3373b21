package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tenants"
)

func init() {
	registerCells("T9", "Scale-out: aggregate IOPS and victim tail vs. device count (multi-SSD topology)", cellsT9)
}

// t9Counts is the device-count ladder a T9 run sweeps.
func t9Counts(o Options) []int {
	if o.Devices > 0 {
		return []int{o.Devices}
	}
	if o.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

// cellsT9 grows the machine from one SSD to eight, keeping the offered
// load per device fixed (one 4 KiB victim + one 64 KiB hog each, the
// T7 pairing) — weak scaling. The fleet shares the host cores; the
// IOMMU (one per root complex), queues, arbitration, and media are
// per-device, so aggregate throughput should track the device count
// while each victim's p99 stays where the single-device machine put
// it. Every cell runs on the same seed, so the device-count rows are
// paired: identical per-tenant arrival processes, more devices. The
// speedup column divides by the 1-device row, which is the table's
// base cell.
func cellsT9(o Options) *cellReport {
	counts := t9Counts(o)
	victimOps, hogOps := 1000, 1000
	if o.Quick {
		victimOps, hogOps = 250, 250
	}
	agg := column{head: "agg (kIOPS)", ci: "agg ci95"}
	tb := &cellTable{
		title: "T9: weak scaling across SSDs (victim+hog per device, wrr, 30µs victim SLO)",
		keys:  []string{"devices", "tenants"},
		cols: []column{agg, {head: "agg (MB/s)", only: singleTrial}, {head: "speedup", speedup: true},
			{head: "victim p50 (µs)", scale: 1e3},
			{head: "victim p99 (µs)", scale: 1e3, ci: p99Col.ci, span: p99Col.span}, sloCol},
		base: counts[0] == 1,
	}
	for _, devices := range counts {
		tb.cells = append(tb.cells, Cell{
			key: []string{fmt.Sprint(devices), fmt.Sprint(2 * devices)},
			run: func(seed int64) ([]float64, error) {
				sc := tenants.ScaleOut(devices, victimOps, hogOps)
				sc.Faults, sc.Metrics, sc.Trace = o.Faults, o.Metrics, o.Trace
				res, _, err := tenants.RunCountedWorkers(seed, sc, o.workers())
				if err != nil {
					return nil, err
				}
				var ops, bytes int64
				start, end := res[0].Start, res[0].End
				victims := stats.NewHistogram()
				var met, vops int64
				for ti, r := range res {
					ops += r.Ops
					bytes += r.Bytes
					start, end = min(start, r.Start), max(end, r.End)
					if ti < devices { // victims come first in ScaleOut order
						victims.Merge(r.Sojourn)
						met += r.Compliant
						vops += r.Ops
					}
				}
				kiops := stats.Throughput(ops, end-start) / 1e3
				s := victims.Summarize()
				return []float64{kiops, stats.BytesPerSec(bytes, end-start) / 1e6, kiops,
					float64(s.P50), float64(s.P99), 100 * float64(met) / float64(vops)}, nil
			},
		})
	}
	return &cellReport{
		title: "multi-SSD scale-out",
		notes: []string{
			"per-device offered load is constant, so aggregate IOPS tracking the device count is the pass condition: the shared IOMMU and host cores are not the bottleneck at this scale",
			"each device's event stream runs on its own simulator shard merged by the global (at, seq) key, so the 8-device cell replays byte-for-byte at any host parallelism",
		},
		tables: []*cellTable{tb},
	}
}
