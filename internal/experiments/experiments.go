// Package experiments contains one harness per table and figure of
// the paper's evaluation (§6), plus the ablations called out in
// DESIGN.md. Each experiment boots fresh simulated systems, runs the
// workload, and renders the same rows/series the paper reports.
//
// Absolute numbers come from a calibrated simulator, so they are not
// expected to equal the paper's testbed measurements; the shapes —
// who wins, by what factor, where crossovers fall — are the
// reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks op counts and sweep points so the full suite
	// runs in seconds (used by tests); the default (false) runs the
	// paper-scale sweeps.
	Quick bool
	// Seed randomizes workloads deterministically.
	Seed int64
	// Parallelism bounds the number of sweep cells an experiment may
	// run concurrently (each cell boots its own simulated system).
	// Values <= 1 run cells sequentially. Results are byte-identical
	// at any setting: every cell is seeded from Seed plus its sweep
	// coordinates, and rows render in sweep order after all cells
	// finish.
	Parallelism int
	// Faults names a fault-injection profile (faults.Profiles) armed
	// for every machine the experiments boot; "" disables injection.
	// Each machine gets its own injector: every trial cell of a
	// table declared as cells seeds it from that trial's seed
	// (TrialSeed(k)), so trials draw independent faults and a one-trial
	// replay reproduces them; the bespoke harnesses (T1, T2, T4, F5,
	// F12, A5, S2) seed it from Seed. A fixed (Seed, Faults) pair
	// replays byte-for-byte at any Parallelism.
	Faults string
	// Devices narrows the topology-aware experiments to one device
	// count: T9 runs only the N-device cell instead of its 1→8 ladder.
	// 0 (the default) sweeps the ladder. Other experiments ignore it —
	// their single-device machines are the paper's testbed.
	Devices int
	// Trials is the number of independent seeded repetitions each
	// sweep cell runs. <= 1 runs the single historical trial and keeps
	// every table byte-identical to earlier releases. With N > 1, every
	// harness declared as cells (all but T1, T2, T4, F5, F12, A5 and
	// S2) runs each cell once per seed TrialSeed(k) — derived from Seed
	// and the trial index k, never from execution order — and renders
	// cross-seed means, plus 95% Student-t confidence and min..max
	// spread columns where a table declares them. Trials share the
	// Parallelism worker pool with sweep cells, and reports stay
	// byte-identical at any -j.
	Trials int
	// Metrics and Trace are the run's metrics registry and trace
	// collector: every machine the experiments boot counts its series
	// in Metrics and registers its span tracer with Trace. nil leaves
	// that plane off. Unlike Faults, they never change a report.
	Metrics *metrics.Registry
	Trace   *trace.Collector
	// Workers sets how many host goroutines drain the event shards of
	// each multi-device scenario's traffic phase (the simulator's
	// parallel drain; DESIGN.md §15). It is orthogonal to Parallelism:
	// Parallelism runs whole sweep cells concurrently, Workers
	// parallelizes the inside of one multi-device cell. Results are
	// byte-identical at any value; <= 1 drains the shards one after
	// another on one goroutine. Single-device cells ignore it.
	Workers int
}

// workers normalizes the Workers option.
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// observers are what every machine of the run is born with: the run's
// registry and collector, and a fresh injector for the run's fault
// profile seeded from Seed (none when no profile is set). Runner.Run
// rejects an unknown profile before any harness runs, so reaching one
// here is a caller bug.
func (o Options) observers() kernel.Observers {
	inj, err := faults.New(o.Faults, o.Seed)
	if err != nil {
		panic(err)
	}
	return kernel.Observers{Faults: inj, Trace: o.Trace, Metrics: o.Metrics}
}

// at is o with Seed set to one trial cell's seed: a cell's harness
// code draws its workload and its fault injector from that trial. At
// trial 0 the seed is Seed itself, so at changes nothing.
func (o Options) at(seed int64) Options {
	o.Seed = seed
	return o
}

// boot boots a single-SSD system of capacity bytes with the run's
// observers.
func (o Options) boot(capacity int64) (*core.System, error) {
	return core.Boot(core.Config{Capacity: capacity, Observers: o.observers()})
}

// mkfile creates path, preallocates size bytes and makes the file
// durable: the data file of the fmap and direct-I/O harnesses.
func mkfile(p *sim.Proc, pr *kernel.Process, path string, size int64) error {
	fd, err := pr.Create(p, path, 0o666)
	if err != nil {
		return err
	}
	if err := pr.Fallocate(p, fd, size); err != nil {
		return err
	}
	if err := pr.Fsync(p, fd); err != nil {
		return err
	}
	return pr.Close(p, fd)
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// Headline summarizes the report's first data row — the experiment's
// leading metric — as "col=val ..." for machine-readable run logs.
func (r *Report) Headline() string {
	if len(r.Tables) == 0 {
		return ""
	}
	t := r.Tables[0]
	if len(t.Rows) == 0 {
		return ""
	}
	var b strings.Builder
	for i, c := range t.Rows[0] {
		if i > 0 {
			b.WriteString(" ")
		}
		h := ""
		if i < len(t.Headers) {
			h = t.Headers[i]
		}
		fmt.Fprintf(&b, "%s=%s", h, c)
	}
	return b.String()
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered harness.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
	// cells declares a trial-aware experiment's tables (registerCells);
	// nil for harnesses that render their own.
	cells func(Options) *cellReport
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Options) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// All returns every experiment in a stable order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts T1 < T2 < T4 < T5 < F5 < ... < F16 < A*.
func orderKey(id string) string {
	if len(id) < 2 {
		return "z" + id
	}
	var class string
	switch id[0] {
	case 'T':
		class = "0"
	case 'F':
		class = "1"
	case 'A':
		class = "2"
	default:
		class = "3"
	}
	return fmt.Sprintf("%s%03s", class, id[1:])
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs lists registered experiment IDs in run order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}
