package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smokeScale runs every workload at 1/500 of its size.
const smokeScale = 500

func smoke(t *testing.T, cfg config) *outcome {
	t.Helper()
	if cfg.scale == 0 {
		cfg.scale = smokeScale
	}
	o, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if len(o.checks) > 0 || o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%s: checks %v, %d of %d ops failed", cfg.workload, o.checks, o.failed, o.attempted)
	}
	return o
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpecDeclaresEmittedMetrics pins BENCHMARK.json to what the
// benchmark prints: the same workloads, and per mode the same metric
// names and units.
func TestSpecDeclaresEmittedMetrics(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	for _, c := range []struct {
		declared []specMetric
		emitted  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		units := map[string]string{}
		for _, d := range c.emitted {
			units[d.name] = d.unit
		}
		var declared []string
		for _, m := range c.declared {
			declared = append(declared, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, benchmark prints %q", m.Name, m.Unit, units[m.Name])
			}
		}
		sort.Strings(declared)
		if !equal(declared, names(c.emitted)) {
			t.Errorf("BENCHMARK.json declares %v, benchmark prints %v", declared, names(c.emitted))
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced at 1/500 scale: the
// checks pass, every end-to-end metric is printed and non-zero, and the
// virtual figures repeat exactly on a second run at the same seed and,
// on the multi-SSD workloads, at 1 epoch worker instead of 2.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o := smoke(t, config{workload: wl, seed: 7})
			if got := keys(o.metrics); !equal(got, names(endToEnd)) {
				t.Errorf("metrics %v, want %v", got, names(endToEnd))
			}
			for name, v := range o.metrics {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", name, v)
				}
			}
			if again := smoke(t, config{workload: wl, seed: 7}); again.virt != o.virt {
				t.Errorf("virtual figures differ between runs at one seed:\n%+v\n%+v", o.virt, again.virt)
			}
			if _, closed := closedSpecs[wl]; !closed {
				if w1 := smoke(t, config{workload: wl, seed: 7, workers: 1}); w1.virt != o.virt {
					t.Errorf("virtual figures differ between 2 and 1 epoch workers:\n%+v\n%+v", o.virt, w1.virt)
				}
			}
		})
	}
}

// TestTracedSmoke runs every workload traced at 1/20 scale: the checks
// pass, every per-layer metric is printed, the Fig. 5 phases sum to the
// measured mean latency within 1%, the profile shares sum to 100%, and
// the trace file is well-formed trace-event JSON.
func TestTracedSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			o := smoke(t, config{workload: wl, seed: 3, traceDir: dir, scale: 20})
			if got := keys(o.metrics); !equal(got, names(perLayer)) {
				t.Errorf("metrics %v, want %v", got, names(perLayer))
			}
			sum := o.phaseNS[0] + o.phaseNS[1] + o.phaseNS[2] + o.phaseNS[3]
			if math.Abs(sum-o.measuredNS) > 0.01*o.measuredNS {
				t.Errorf("phases sum to %.1f ns, measured mean %.1f ns", sum, o.measuredNS)
			}
			if wl != "fleet" && o.measuredNS == 0 {
				t.Error("no traced I/O")
			}
			if o.profileN == 0 {
				t.Fatal("no profile samples")
			}
			var pct float64
			for _, g := range profileGroups {
				pct += o.metrics[cpuMetric(g)]
			}
			if math.Abs(pct-100) > 1e-6 {
				t.Errorf("profile shares sum to %v%%", pct)
			}
			checkTraceFile(t, filepath.Join(dir, wl+".trace.json"))
		})
	}
}

// checkTraceFile applies the rules of cmd/tracecheck: only complete
// spans with a name, non-negative ts and dur and a pid, and
// process_name/thread_name metadata with args.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Pid  *int            `json:"pid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "" || e.Ts == nil || *e.Ts < 0 || e.Dur == nil || *e.Dur < 0 || e.Pid == nil {
				t.Errorf("event %d: malformed span %+v", i, e)
			}
		case "M":
			if (e.Name != "process_name" && e.Name != "thread_name") || len(e.Args) == 0 {
				t.Errorf("event %d: malformed metadata %+v", i, e)
			}
		default:
			t.Errorf("event %d: phase %q", i, e.Ph)
		}
	}
	if spans == 0 {
		t.Error("trace has no spans")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1, 9, 3}, 1.5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.2, 1.1, 7.5, 2.2, 9.9, 4.4, 5.5}, 2.2, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdicts covers the -compare decision rule.
func TestVerdicts(t *testing.T) {
	bound := 0.1
	same := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := []float64{150, 151, 149, 150, 152, 148, 150, 151, 149, 150}
	worse := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		wins int
		want string
	}{
		{"gain", same, better, 10, "improved"},
		{"regression", same, worse, 0, "worse"},
		{"noise", same, same, 5, "unchanged"},
		{"spread over bound", same, noisy, 5, "unresolved"},
	} {
		if got := verdictOf(c.a, c.b, c.wins, 10, true, &bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
