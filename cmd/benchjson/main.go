// Command benchjson converts `go test -bench` text output into a
// stable JSON document, so benchmark numbers can be committed and
// diffed across PRs (see `make bench-json`, which writes
// BENCH.json).
//
//	go test -bench 'Fig6LatBW' -benchmem -run '^$' . | benchjson -o out.json
//	benchjson -baseline old-bench.txt -o out.json < new-bench.txt
//	go test -bench . -run '^$' . | benchjson -check BENCH.json
//
// Every metric pair the testing package prints is kept, including
// custom b.ReportMetric units such as virtual-ns/op. When a benchmark
// reports both ns/op and virtual-ns/op, the derived metric
// wall-ns-per-virtual-ns (host nanoseconds spent per simulated
// nanosecond — the simulator's slowdown factor) is added; when it
// reports events/sec, wall-ns-per-event (its reciprocal) is added so
// dispatch cost diffs in the same units as ns/op.
//
// The optional -baseline flag parses a second bench-output file and
// embeds it under "baseline" so one committed file carries the
// before/after pair.
//
// -check compares the parsed run against a committed snapshot JSON
// and exits nonzero if any benchmark present in both regressed its
// ns/op by more than -tolerance (default 0.25, i.e. fail only when
// more than 25% slower — host timings on shared CI machines are
// noisy, so small drifts must not fail the gate). Repeated lines for
// one benchmark (go test -count N) collapse to the minimum ns/op
// before comparison. The deterministic per-op counts events/op,
// resumes/op and switches/op (simulator events, proc resumes, and the
// resumes that switched coroutines) are gated exactly: every line of a
// benchmark whose snapshot row reports a count must report the same
// value. A snapshot row that is allocation-free (0 allocs/op and
// 0 B/op) must stay so on every line; other rows' allocs/op vary with
// pool and GC timing and stay ungated. Benchmarks missing from either
// side are reported but do not fail the check. Each -speedup flag
// (repeatable) adds a parallel-speedup floor between two benchmarks of
// the run, enforced only on hosts with the CPUs to express it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// benchLine is one parsed Benchmark result row.
type benchLine struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// benchRun is a whole `go test -bench` invocation.
type benchRun struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchLine `json:"benchmarks"`
}

// output is the document benchjson writes.
type output struct {
	GeneratedBy string    `json:"generated_by"`
	GoVersion   string    `json:"go_version,omitempty"`
	Run         benchRun  `json:"run"`
	Baseline    *benchRun `json:"baseline,omitempty"`
}

// parseBench reads `go test -bench` output, keeping the header
// key: value lines and every Benchmark row.
func parseBench(r io.Reader) (benchRun, error) {
	var run benchRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			run.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			run.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			run.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			bl, ok := parseBenchLine(line)
			if !ok {
				continue // a benchmark name echoed without results
			}
			run.Benchmarks = append(run.Benchmarks, bl)
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if len(run.Benchmarks) == 0 {
		return run, fmt.Errorf("no Benchmark result lines found")
	}
	return run, nil
}

// parseBenchLine parses one result row:
//
//	BenchmarkFig6LatBW-8   18   64613020 ns/op   9145056 B/op   28489 allocs/op
func parseBenchLine(line string) (benchLine, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchLine{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchLine{}, false
	}
	bl := benchLine{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchLine{}, false
		}
		bl.Metrics[fields[i+1]] = v
	}
	// Derived: how many host nanoseconds one simulated nanosecond
	// costs. The throughput work drives this down; the snapshot
	// trajectory makes the progress visible.
	if wall, ok := bl.Metrics["ns/op"]; ok {
		if virt, ok := bl.Metrics["virtual-ns/op"]; ok && virt > 0 {
			bl.Metrics["wall-ns-per-virtual-ns"] = wall / virt
		}
	}
	// Derived: host nanoseconds per dispatched simulator event — the
	// reciprocal of events/sec, in units that diff cleanly against
	// ns/op. This is the number the parallel dispatcher moves: more
	// workers, fewer wall-ns per event, same events.
	if eps, ok := bl.Metrics["events/sec"]; ok && eps > 0 {
		bl.Metrics["wall-ns-per-event"] = 1e9 / eps
	}
	return bl, true
}

// checkSpeedup enforces a parallel-speedup floor between two
// benchmarks of one run: spec is "numerator:denominator:min[:cpus]",
// e.g. "SimThroughputSharded/w4:SimThroughputSharded/w1:2.5". Speedup
// is measured on events/sec when both sides report it (ns/op
// otherwise), with min-ns/op / max-events-sec over repeated lines. The
// assertion only means something when the host has cores for the
// workers to land on, so on hosts with fewer CPUs than the spec's cpus
// (minCores when it names none) the check prints a notice and passes
// vacuously — the determinism gates still run there.
func checkSpeedup(w io.Writer, cur benchRun, spec string, minCores int) int {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		fmt.Fprintf(w, "  SKIP  -speedup %q: want numerator:denominator:min[:cpus]\n", spec)
		return 1
	}
	min, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		fmt.Fprintf(w, "  SKIP  -speedup %q: bad minimum: %v\n", spec, err)
		return 1
	}
	if len(parts) == 4 {
		if minCores, err = strconv.Atoi(parts[3]); err != nil {
			fmt.Fprintf(w, "  SKIP  -speedup %q: bad cpus: %v\n", spec, err)
			return 1
		}
	}
	if n := runtime.NumCPU(); n < minCores {
		fmt.Fprintf(w, "  SKIP  speedup %s vs %s: host has %d CPU(s), need >= %d to express parallel speedup; gate passes vacuously\n",
			parts[0], parts[1], n, minCores)
		return 0
	}
	pick := func(name string) (benchLine, bool) {
		var best benchLine
		found := false
		for _, b := range cur.Benchmarks {
			if b.Name != name {
				continue
			}
			if !found || b.Metrics["ns/op"] < best.Metrics["ns/op"] {
				best = b
			}
			found = true
		}
		return best, found
	}
	num, okN := pick(parts[0])
	den, okD := pick(parts[1])
	if !okN || !okD {
		fmt.Fprintf(w, "  FAIL  speedup %s vs %s: benchmark missing from run\n", parts[0], parts[1])
		return 1
	}
	var ratio float64
	basis := "events/sec"
	if ne, de := num.Metrics["events/sec"], den.Metrics["events/sec"]; ne > 0 && de > 0 {
		ratio = ne / de
	} else if nn, dn := num.Metrics["ns/op"], den.Metrics["ns/op"]; nn > 0 && dn > 0 {
		basis = "ns/op"
		ratio = dn / nn
	} else {
		fmt.Fprintf(w, "  FAIL  speedup %s vs %s: no comparable metric\n", parts[0], parts[1])
		return 1
	}
	status := "ok"
	fails := 0
	if ratio < min {
		status = "FAIL"
		fails = 1
	}
	fmt.Fprintf(w, "  %-5s speedup %s vs %s: %.2fx on %s (floor %.2fx)\n",
		status, parts[0], parts[1], ratio, basis, min)
	return fails
}

// countMetrics are the per-op counts -check gates exactly: the
// simulator dispatches the same events, proc resumes and coroutine
// switches per op on every host and at every -benchtime.
var countMetrics = []string{"events/op", "resumes/op", "switches/op"}

// allocFree reports whether a snapshot row is allocation-free. Both
// allocs/op and B/op must read 0: the testing package rounds allocs/op
// down, so a row that grows a buffer now and then shows 0 allocs/op
// with some B/op at a long -benchtime, and whole allocations per op at
// a short one.
func allocFree(b benchLine) bool {
	allocs, okA := b.Metrics["allocs/op"]
	bytes, okB := b.Metrics["B/op"]
	return okA && okB && allocs == 0 && bytes == 0
}

// checkAgainst compares cur to the committed snapshot, enforcing the
// ns/op tolerance, exact per-op counts and allocation-free rows. When the run carries
// repeated lines for one benchmark (go test -count N), the minimum
// ns/op wins — min over repetitions is the standard noise-robust
// estimator, so a loaded host needs every repetition to be slow before
// the gate trips — while every repetition must match the counts. It
// returns the number of failures and prints one line per benchmark,
// plus one per count mismatch, to w.
func checkAgainst(w io.Writer, cur benchRun, snap output, tolerance float64) int {
	snapshot := map[string]benchLine{}
	for _, b := range snap.Run.Benchmarks {
		snapshot[b.Name] = b
	}
	best := map[string]benchLine{}
	lines := map[string][]benchLine{}
	var order []string
	for _, b := range cur.Benchmarks {
		prev, ok := best[b.Name]
		if !ok {
			order = append(order, b.Name)
		}
		if !ok || b.Metrics["ns/op"] < prev.Metrics["ns/op"] {
			best[b.Name] = b
		}
		lines[b.Name] = append(lines[b.Name], b)
	}
	failures := 0
	seen := map[string]bool{}
	for _, name := range order {
		b := best[name]
		seen[b.Name] = true
		base, ok := snapshot[b.Name]
		if !ok {
			fmt.Fprintf(w, "  NEW   %-28s %.0f ns/op (not in snapshot)\n", b.Name, b.Metrics["ns/op"])
			continue
		}
		for _, unit := range countMetrics {
			want, ok := base.Metrics[unit]
			if !ok {
				continue
			}
			for _, l := range lines[name] {
				if got, ok := l.Metrics[unit]; !ok || got != want {
					fmt.Fprintf(w, "  FAIL  %-28s %g -> %g %s (must match exactly)\n", name, want, got, unit)
					failures++
					break
				}
			}
		}
		if allocFree(base) {
			for _, l := range lines[name] {
				if got := l.Metrics["allocs/op"]; got > 0 {
					fmt.Fprintf(w, "  FAIL  %-28s 0 -> %g allocs/op (allocation-free in snapshot)\n", name, got)
					failures++
					break
				}
			}
		}
		now, baseNs := b.Metrics["ns/op"], base.Metrics["ns/op"]
		if baseNs <= 0 {
			continue
		}
		ratio := now / baseNs
		status := "ok"
		if ratio > 1+tolerance {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "  %-5s %-28s %.0f -> %.0f ns/op (%+.1f%%, tolerance %+.0f%%)\n",
			status, b.Name, baseNs, now, 100*(ratio-1), 100*tolerance)
	}
	for _, b := range snap.Run.Benchmarks {
		if !seen[b.Name] {
			fmt.Fprintf(w, "  GONE  %-28s in snapshot but not in this run\n", b.Name)
		}
	}
	return failures
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		outPath   = flag.String("o", "", "write JSON here instead of stdout")
		baseline  = flag.String("baseline", "", "optional prior `go test -bench` text output to embed under \"baseline\"")
		checkPath = flag.String("check", "", "committed snapshot JSON to gate against; exits 1 on an ns/op regression beyond -tolerance, a per-op count mismatch, or an allocation on an allocation-free row")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression in -check mode")
		minCores  = flag.Int("speedup-cores", 4, "host CPUs required before a -speedup floor that names none is enforced rather than skipped")
		speedups  []string
	)
	flag.Func("speedup", "in -check mode, also enforce 'numerator:denominator:min[:cpus]' parallel speedup between two benchmarks of this run, skipped below cpus (default -speedup-cores) host CPUs; repeatable", func(spec string) error {
		speedups = append(speedups, spec)
		return nil
	})
	flag.Parse()

	cur, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse stdin: %v\n", err)
		return 1
	}
	if *checkPath != "" {
		data, err := os.ReadFile(*checkPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		var snap output
		if err := json.Unmarshal(data, &snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse %s: %v\n", *checkPath, err)
			return 1
		}
		fmt.Printf("benchjson: checking against %s\n", *checkPath)
		n := checkAgainst(os.Stdout, cur, snap, *tolerance)
		for _, spec := range speedups {
			n += checkSpeedup(os.Stdout, cur, spec, *minCores)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d check(s) failed\n", n)
			return 1
		}
		return 0
	}
	doc := output{GeneratedBy: "make bench-json", GoVersion: runtime.Version(), Run: cur}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			return 1
		}
		base, err := parseBench(f)
		_ = f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse %s: %v\n", *baseline, err)
			return 1
		}
		doc.Baseline = &base
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *outPath == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*outPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	return 0
}
