// Command bypassd-bench regenerates the paper's tables and figures.
//
//	bypassd-bench                 # run everything, quick scale
//	bypassd-bench -full           # paper-scale sweeps (minutes)
//	bypassd-bench -run F6,F9      # selected experiments
//	bypassd-bench -trials 5       # 5 seeded trials per cell: mean ± 95% CI columns
//	bypassd-bench -j 8            # run experiments and sweep cells in parallel
//	bypassd-bench -workers 4      # host cores per multi-SSD cell (parallel drain)
//	bypassd-bench -list           # show the experiment index
//	bypassd-bench -o results.md   # also write a markdown report
//	bypassd-bench -json run.json  # machine-readable per-experiment results
//	bypassd-bench -faults chaos   # run under a named fault-injection profile
//	bypassd-bench -tenants noisy-neighbor-wrr-8   # run one tenant scenario (builtin or JSON file)
//	bypassd-bench -frontend fleet-token-2.0x      # run one service-tier fleet (builtin or JSON file)
//	bypassd-bench -trace t.json   # per-request spans as Chrome trace-event JSON
//	bypassd-bench -metrics        # print the unified metrics registry after the run
//	bypassd-bench -cpuprofile cpu.pprof -memprofile mem.pprof  # host-level pprof profiles
//
// Reports go to stdout in the experiments' registered order and are
// byte-identical at any -j value; progress and timing lines go to
// stderr so that `bypassd-bench -j 8 > out` equals `-j 1 > out`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tenants"
	"repro/internal/trace"
	"repro/internal/workload"
)

// jsonResult is one experiment's machine-readable outcome.
type jsonResult struct {
	ID       string  `json:"id"`
	Title    string  `json:"title"`
	Headline string  `json:"headline,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	Err      string  `json:"err,omitempty"`
}

// jsonRun is the -json output: run metadata plus per-experiment rows.
type jsonRun struct {
	Mode        string            `json:"mode"`
	Seed        int64             `json:"seed"`
	Trials      int               `json:"trials,omitempty"`
	Parallelism int               `json:"parallelism"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	TotalWallMS float64           `json:"total_wall_ms"`
	Faults      string            `json:"faults,omitempty"`
	FaultsTotal int64             `json:"faults_total,omitempty"`
	FaultsBy    map[string]int64  `json:"faults_by_site,omitempty"`
	Metrics     *metrics.Snapshot `json:"metrics,omitempty"`
	Results     []jsonResult      `json:"results"`
}

func main() {
	os.Exit(run())
}

// runScenario executes one -tenants scenario or -frontend fleet — a
// builtin name or a JSON config file — with the run's observers and
// returns its table (per tenant or per device) and a description of
// the run. Like the experiment path, the table is deterministic for a
// fixed seed.
func runScenario(tenantsF, frontF string, seed int64, devices, shardWorkers int, faultsP string, reg *metrics.Registry, col *trace.Collector) (*stats.Table, string, error) {
	if tenantsF != "" {
		sc, ok := tenants.ByName(tenantsF)
		if !ok {
			var err error
			if sc, err = workload.Load[tenants.Scenario](tenantsF); err != nil {
				return nil, "", fmt.Errorf("-tenants %q: not a builtin scenario (try -list) and %v", tenantsF, err)
			}
		}
		if devices > 0 {
			sc.Devices = devices
		}
		sc.Faults, sc.Metrics, sc.Trace = faultsP, reg, col
		desc := fmt.Sprintf("tenant scenario %s (%d tenants, %d device(s), arbiter %s, seed %d)",
			sc.Name, len(sc.Tenants), sc.NumDevices(), sc.ArbiterName(), seed)
		fmt.Fprintf(os.Stderr, "== running %s\n", desc)
		res, _, err := tenants.RunCountedWorkers(seed, sc, shardWorkers)
		if err != nil {
			return nil, desc, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		return tenants.ReportTable(sc, res), desc, nil
	}
	fl, ok := frontend.ByName(frontF)
	if !ok {
		var err error
		if fl, err = workload.Load[frontend.Fleet](frontF); err != nil {
			return nil, "", fmt.Errorf("-frontend %q: not a builtin fleet (try -list) and %v", frontF, err)
		}
	}
	if devices > 0 {
		fl.Devices = devices
	}
	fl.Faults, fl.Metrics, fl.Trace = faultsP, reg, col
	desc := fmt.Sprintf("frontend fleet %s (%d users, pool %d, %d device(s), %s admission, seed %d)",
		fl.Name, fl.Users, fl.Pool, fl.NumDevices(), fl.PolicyName(), seed)
	fmt.Fprintf(os.Stderr, "== running %s\n", desc)
	res, _, err := frontend.RunCountedWorkers(seed, fl, shardWorkers)
	if err != nil {
		return nil, desc, fmt.Errorf("fleet %s: %w", fl.Name, err)
	}
	return frontend.ReportTable(fl, res), desc, nil
}

// reportFaults prints the run's injected-fault tally — read from the
// metrics registry every fire adds to — to stderr, and returns it for
// the -json fields.
func reportFaults(reg *metrics.Registry, profile string) (bySite map[string]int64, total int64) {
	bySite, total = faults.Fired(reg)
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	fmt.Fprintf(os.Stderr, "== injected faults: %d total (profile %q)\n", total, profile)
	for _, s := range sites {
		fmt.Fprintf(os.Stderr, "==   %-28s %d\n", s, bySite[s])
	}
	return bySite, total
}

// run is main minus os.Exit, so the profile-writing defers installed
// for -cpuprofile/-memprofile always flush before the process ends.
func run() int {
	var (
		runList  = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		full     = flag.Bool("full", false, "paper-scale sweeps instead of quick mode")
		list     = flag.Bool("list", false, "list experiments and exit")
		seed     = flag.Int64("seed", 1, "workload seed")
		trials   = flag.Int("trials", 1, "independent seeded trials per sweep cell; >1 adds mean±95% CI and spread columns")
		parallel = flag.Int("j", 1, "worker count for experiments and sweep cells; 0 = GOMAXPROCS")
		shardW   = flag.Int("workers", 1, "host goroutines draining each multi-SSD scenario's event shards (results are byte-identical at any value)")
		out      = flag.String("o", "", "also write the combined report to this file")
		jsonOut  = flag.String("json", "", "write machine-readable results to this file")
		faultsP  = flag.String("faults", "", "fault-injection profile name (see -list); empty = disabled")
		tenantsF = flag.String("tenants", "", "run one multi-tenant scenario: a builtin name (see -list) or a JSON config file")
		frontF   = flag.String("frontend", "", "run one service-tier fleet: a builtin name (see -list) or a JSON config file")
		devices  = flag.Int("devices", 0, "SSD count for the topology-aware paths: overrides a -tenants scenario's device count and narrows T9 to one cell; 0 = scenario/experiment default")
		traceOut = flag.String("trace", "", "write per-request spans to this file (Chrome trace-event JSON)")
		metricsF = flag.Bool("metrics", false, "print the unified metrics registry to stdout after the run")
		cpuProf  = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a host allocation profile (after the run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProf, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
				return
			}
			runtime.GC() // settle live objects so alloc_space dominates
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			}
			_ = f.Close()
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		fmt.Println("\nfault profiles (-faults):")
		for _, p := range faults.Profiles() {
			fmt.Printf("%-14s %s\n", p.Name, p.Desc)
		}
		fmt.Println("\ntenant scenarios (-tenants):")
		for _, sc := range tenants.Builtins() {
			fmt.Printf("%-24s %d tenants, arbiter %s\n", sc.Name, len(sc.Tenants), sc.ArbiterName())
		}
		fmt.Println("\nfrontend fleets (-frontend):")
		for _, fl := range frontend.Builtins() {
			fmt.Printf("%-24s %d users over pool %d, %s admission, %s backend\n",
				fl.Name, fl.Users, fl.Pool, fl.PolicyName(), fl.Backend)
		}
		return 0
	}

	if *faultsP != "" {
		if _, ok := faults.ProfileByName(*faultsP); !ok {
			fmt.Fprintf(os.Stderr, "unknown fault profile %q (try -list)\n", *faultsP)
			return 1
		}
		fmt.Fprintf(os.Stderr, "== fault profile %q armed (seed %d)\n", *faultsP, *seed)
	}
	// The run's observers: every machine it boots counts in reg and
	// registers its span tracer with col.
	var reg *metrics.Registry
	if *metricsF || *faultsP != "" {
		// Every injected fault adds to the registry: it is the run's
		// one fault tally.
		reg = metrics.NewRegistry()
	}
	var col *trace.Collector
	if *traceOut != "" {
		col = trace.NewCollector(trace.Options{})
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mode := "quick"
	if *full {
		mode = "full (paper-scale)"
	}
	var (
		combined strings.Builder // the -o report
		jrs      []jsonResult
		failed   int
		total    time.Duration
	)
	if *tenantsF != "" || *frontF != "" {
		mode, workers = "scenario", 1
		start := time.Now()
		tb, desc, err := runScenario(*tenantsF, *frontF, *seed, *devices, *shardW, *faultsP, reg, col)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return 1
		}
		total = time.Since(start)
		fmt.Print(tb.String())
		fmt.Fprintf(os.Stderr, "== done (wall time %.1fs)\n", total.Seconds())
		combined.WriteString(tb.String())
		rep := experiments.Report{Tables: []*stats.Table{tb}}
		jrs = []jsonResult{{ID: tb.Title, Title: desc, Headline: rep.Headline(), WallMS: ms(total)}}
	} else {
		var exps []experiments.Experiment
		if *runList == "all" {
			exps = experiments.All()
		} else {
			for _, id := range strings.Split(*runList, ",") {
				id = strings.TrimSpace(id)
				e, ok := experiments.ByID(id)
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
					failed++
					continue
				}
				exps = append(exps, e)
			}
		}
		opts := experiments.Options{Quick: !*full, Seed: *seed, Parallelism: workers, Faults: *faultsP, Trials: *trials,
			Devices: *devices, Workers: *shardW, Metrics: reg, Trace: col}
		if *trials > 1 {
			fmt.Fprintf(os.Stderr, "== %d trials per cell (trial k at seed %d+k-derived); tables report mean ± 95%% CI\n",
				*trials, *seed)
		}
		runner := &experiments.Runner{
			OnStart: func(e experiments.Experiment) {
				fmt.Fprintf(os.Stderr, "== running %s: %s\n", e.ID, e.Title)
			},
			OnDone: func(r experiments.RunResult) {
				if r.Err != nil {
					fmt.Fprintf(os.Stderr, "== %s failed after %.1fs: %v\n", r.Experiment.ID, r.Wall.Seconds(), r.Err)
					return
				}
				fmt.Fprintf(os.Stderr, "== %s done (wall time %.1fs)\n", r.Experiment.ID, r.Wall.Seconds())
			},
		}
		start := time.Now()
		results := runner.Run(exps, opts)
		total = time.Since(start)

		fmt.Fprintf(&combined, "# BypassD reproduction results (%s mode)\n\n", mode)
		for _, r := range results {
			jr := jsonResult{ID: r.Experiment.ID, Title: r.Experiment.Title, WallMS: ms(r.Wall)}
			if r.Err != nil {
				jr.Err = r.Err.Error()
				failed++
			} else {
				jr.Headline = r.Report.Headline()
				fmt.Print(r.Report.String())
				fmt.Println()
				combined.WriteString(r.Report.String())
				combined.WriteString("\n")
			}
			jrs = append(jrs, jr)
		}
		fmt.Fprintf(os.Stderr, "== total wall time %.1fs (%d experiments, -j %d)\n",
			total.Seconds(), len(results), workers)
	}

	if *metricsF {
		fmt.Print(reg.Render())
		fmt.Println()
	}
	if *traceOut != "" {
		if err := col.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *traceOut, err)
			failed++
		} else {
			ev, dr := col.Events()
			fmt.Fprintf(os.Stderr, "== trace: %d events (%d dropped) -> %s\n", ev, dr, *traceOut)
		}
	}
	run := jsonRun{
		Mode:        mode,
		Seed:        *seed,
		Trials:      *trials,
		Parallelism: workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		TotalWallMS: ms(total),
		Results:     jrs,
	}
	if *faultsP != "" {
		run.Faults = *faultsP
		run.FaultsBy, run.FaultsTotal = reportFaults(reg, *faultsP)
	}
	if *metricsF {
		snap := reg.Snapshot()
		run.Metrics = &snap
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(combined.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			failed++
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(run, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// ms is d in milliseconds, as the -json fields report wall time.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
