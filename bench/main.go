// Command bench is the repository's performance benchmark: it runs one
// workload at one seed on the simulator, checks the outputs, and prints
// one JSON line with every metric by name and unit.
//
//	bash bench/run.sh --workload read4k --seed 1 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"peak_rss_mb", "MiB"},
	{"virt_kops", "kops/s"},
	{"virt_slo_pct", "%"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_op", "events/op"},
		{"sim.host_ns_per_event", "ns"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.alloc_bytes_per_op", "B/op"},
		{"runtime.allocs_per_op", "allocs/op"},
		{"device.cmds_per_op", "cmds/op"},
		{"device.write_amp", "x"},
		{"device.flushes_per_fsync", "x"},
		{"userlib.submit_share_pct", "%"},
		{"iommu.translate_share_pct", "%"},
		{"device.media_share_pct", "%"},
		{"nvme.complete_share_pct", "%"},
		{"iommu.translations_per_op", "x"},
		{"iommu.walks_per_translation", "x"},
		{"iommu.pwc_hit_pct", "%"},
		{"iommu.iotlb_hit_pct", "%"},
		{"userlib.direct_pct", "%"},
		{"userlib.retries", "count"},
		{"userlib.refmaps", "count"},
		{"ext4.commits_per_fsync", "x"},
		{"kernel.block_retries", "count"},
		{"core.boot_s", "s"},
		{"core.fill_s", "s"},
		{"core.open_s", "s"},
		{"frontend.shed_arrival_pct", "%"},
		{"frontend.shed_queue_pct", "%"},
		{"frontend.peak_backlog", "count"},
		{"frontend.users_served_pct", "%"},
		{"frontend.setup_s", "s"},
		{"tenants.victim_peak_backlog", "count"},
		{"tenants.hog_mb_per_s", "MB/s"},
		{"tenants.setup_s", "s"},
		{"trace.overhead_pct", "%"},
		{"profile.samples", "count"},
		{"virt.samples", "count"},
		{"virt.p99_over_p50", "x"},
		{"virt.p999_over_p50", "x"},
	}
	for _, g := range profileGroups {
		defs = append(defs, metricDef{cpuMetric(g), "%"})
	}
	return defs
}()

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitValues pairs each defined metric's value with its unit.
func unitValues(m map[string]float64, defs []metricDef) map[string]valueUnit {
	out := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		out[d.name] = valueUnit{m[d.name], d.unit}
	}
	return out
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(2)
	workload := flag.String("workload", "", "workload to run: read4k, rwlog, fleet or scaleout")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "traffic time to measure, in seconds (whole passes; at least the workload's minimum)")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics and writing trace files")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory for a traced run's W.trace.json and W.layers.json")
	compare := flag.Bool("compare", false, "compare two JSONL files of results against the bounds in ./BENCHMARK.json: -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, scale: 1, workers: epochWorkers}
	defs := endToEnd
	if *traced == 1 {
		cfg.traceDir, defs = *traceDir, perLayer
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	report(o, defs)
	if len(o.checks) > 0 {
		os.Exit(1)
	}
}

// report prints a human summary to stderr and the result line to
// stdout. A metric that is not a finite number fails the run.
func report(o *outcome, defs []metricDef) {
	v := o.virt
	fmt.Fprintf(os.Stderr, "virtual: %d samples, mean %.3f µs, p50 %.3f µs, p99 %.3f µs, p999 %.3f µs, read p99 %.3f µs, fsync p99 %.3f µs, %.3f kops/s, %.3f%% within the SLO\n",
		v.samples, v.meanNS/1e3, float64(v.p50)/1e3, float64(v.p99)/1e3, float64(v.p999)/1e3,
		float64(v.readP99)/1e3, float64(v.fsyncP99)/1e3, v.kops, v.sloPct)
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for name, x := range o.metrics {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			o.fail("metric %s is %v", name, x)
			o.metrics[name] = 0
		}
	}
	for _, c := range o.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	line, err := json.Marshal(resultLine{
		Correct:   len(o.checks) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   unitValues(o.metrics, defs),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
