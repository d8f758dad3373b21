package experiments

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/faults"
)

// RunResult is one experiment's outcome under a Runner.
type RunResult struct {
	Experiment Experiment
	Report     *Report
	Err        error
	Wall       time.Duration
}

// Runner executes a set of experiments over sweepMap's worker pool.
// Workers pull the next unstarted experiment from a shared index
// (dynamic scheduling: a worker that finishes a short harness
// immediately steals the next one rather than idling behind a long
// one), and results are returned in the callers' submission order, so
// rendering them is byte-identical to a sequential run.
//
// Every experiment boots its own simulated systems and shares no
// mutable state with the others, which is what makes this safe — the
// same shared-nothing argument BypassD itself makes for per-thread
// queue pairs (§6.3).
type Runner struct {
	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallelism int
	// OnStart, when set, is called as each experiment begins
	// (serialized; use for progress output).
	OnStart func(e Experiment)
	// OnDone, when set, is called as each experiment finishes
	// (serialized, completion order — not submission order).
	OnDone func(r RunResult)

	mu sync.Mutex // serializes OnStart/OnDone
}

// Run executes exps with the given options and returns one result per
// experiment, index-aligned with exps regardless of completion order.
// When o.Faults names a profile, every machine any experiment boots
// gets its own injector for it (Options.Faults); an unknown profile
// fails every experiment up front rather than running un-faulted.
func (r *Runner) Run(exps []Experiment, o Options) []RunResult {
	if _, err := faults.New(o.Faults, o.Seed); err != nil {
		results := make([]RunResult, len(exps))
		for i, e := range exps {
			results[i] = RunResult{Experiment: e, Err: err}
		}
		return results
	}
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// runOne never fails: each experiment's error stays in its result.
	results, _ := sweepMap(Options{Parallelism: workers}, len(exps), func(i int) (RunResult, error) {
		return r.runOne(exps[i], o), nil
	})
	return results
}

func (r *Runner) runOne(e Experiment, o Options) RunResult {
	if r.OnStart != nil {
		r.mu.Lock()
		r.OnStart(e)
		r.mu.Unlock()
	}
	start := time.Now()
	rep, err := e.Run(o)
	res := RunResult{Experiment: e, Report: rep, Err: err, Wall: time.Since(start)}
	if r.OnDone != nil {
		r.mu.Lock()
		r.OnDone(res)
		r.mu.Unlock()
	}
	return res
}
