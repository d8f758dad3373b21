// Command bypassd-repro replays one table cell of one experiment at
// its exact recorded seed — the anomaly-reproduction half of the
// statistical rigor plane. Given a cell spec (the strings the
// statistical gates print when they fail, or hand-written from any
// report table), it re-runs just that experiment, selects the pinned
// rows, and attaches the evidence a debugging session wants: the
// derived workload seed, trace spans, the metrics registry, and fault
// counters.
//
//	bypassd-repro 'T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1,trial=3'
//	bypassd-repro -metrics -trace t.json 'F9:threads=16,engine=io_uring@seed=1'
//	bypassd-repro -gates              # run every statistical gate
//	bypassd-repro -gates t7-arbiter-p99
//
// Spec grammar: ID[:col=value,...][@seed=N,trial=K,trials=N,faults=P,full]
// — column keys spell spaces as '_' and drop unit suffixes
// ("block_size=4KB" pins the "block size (…)" column). trial=K
// replays the k-th trial of a multi-trial run at its derived seed;
// trials=N re-runs the whole N-trial aggregation, CI columns and all.
//
// Matched rows print to stdout and are byte-identical at any -j; all
// progress goes to stderr, so output can be diffed across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		gates    = flag.Bool("gates", false, "run the statistical gates (all, or those named as arguments)")
		parallel = flag.Int("j", 1, "worker count for sweep cells and trials; 0 = GOMAXPROCS")
		seed     = flag.Int64("seed", 1, "base seed for -gates runs (specs carry their own)")
		trials   = flag.Int("trials", 5, "trial count for -gates runs (minimum 5)")
		full     = flag.Bool("full", false, "paper-scale workloads for -gates runs (specs carry their own)")
		metricsF = flag.Bool("metrics", false, "print the unified metrics registry after the replay")
		traceOut = flag.String("trace", "", "write per-request spans to this file (Chrome trace-event JSON)")
	)
	flag.Parse()

	if *gates {
		return runGates(flag.Args(), experiments.Options{
			Quick: !*full, Seed: *seed, Trials: *trials, Parallelism: *parallel,
		})
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bypassd-repro [flags] 'ID[:col=value,...][@seed=N,trial=K,...]'  (or -gates)")
		return 2
	}
	return runSpec(flag.Arg(0), *parallel, *metricsF, *traceOut)
}

func runSpec(arg string, parallel int, metricsF bool, traceOut string) int {
	sp, err := experiments.ParseReproSpec(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	o := experiments.Options{Parallelism: parallel}
	if traceOut != "" {
		o.Trace = trace.NewCollector(trace.Options{})
	}
	if metricsF || sp.Faults != "" {
		// Every injected fault adds to the registry: it is the
		// replay's fault tally.
		o.Metrics = metrics.NewRegistry()
	}
	fmt.Fprintf(os.Stderr, "== replaying %s\n", sp)
	run, err := experiments.RunRepro(sp, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Printf("spec: %s\n", run.Spec)
	fmt.Printf("derived seed: %d\n\n", run.DerivedSeed)
	// Re-render the matched rows grouped per source table, so a spec
	// that pins one cell prints one row under its original headers.
	var last *stats.Table
	for _, m := range run.Matches {
		if last == nil || last.Title != m.Table {
			if last != nil {
				fmt.Print(last.String())
				fmt.Println()
			}
			last = stats.NewTable(m.Table, m.Headers...)
		}
		row := make([]any, len(m.Row))
		for i, c := range m.Row {
			row[i] = c
		}
		last.AddRow(row...)
	}
	if last != nil {
		fmt.Print(last.String())
	}
	if sp.Faults != "" {
		counts, total := faults.Fired(o.Metrics)
		sites := make([]string, 0, len(counts))
		for s := range counts {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		fmt.Printf("\nfaults injected: %d (profile %q)\n", total, sp.Faults)
		for _, s := range sites {
			fmt.Printf("  %-28s %d\n", s, counts[s])
		}
	}
	if metricsF {
		fmt.Println()
		fmt.Print(o.Metrics.Render())
	}
	if traceOut != "" {
		if err := o.Trace.WriteFile(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", traceOut, err)
			return 1
		}
		ev, dr := o.Trace.Events()
		fmt.Fprintf(os.Stderr, "== trace: %d events (%d dropped) -> %s\n", ev, dr, traceOut)
	}
	return 0
}

func runGates(names []string, o experiments.Options) int {
	gates := experiments.Gates()
	if len(names) > 0 {
		gates = gates[:0:0]
		for _, n := range names {
			g, ok := experiments.GateByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown gate %q; have:\n", n)
				for _, g := range experiments.Gates() {
					fmt.Fprintf(os.Stderr, "  %-20s %s\n", g.Name, g.Claim)
				}
				return 2
			}
			gates = append(gates, g)
		}
	}
	failed := 0
	for _, g := range gates {
		res, err := g.Run(o)
		if err != nil {
			fmt.Printf("ERROR %s: %v\n", g.Name, err)
			failed++
			continue
		}
		verdict := "PASS"
		if !res.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %s\n  claim:  %s\n  detail: %s\n", verdict, res.Name, g.Claim, res.Detail)
		for _, spec := range res.Repro {
			fmt.Printf("  repro:  bypassd-repro '%s'\n", spec)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
