package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// A Gate is a tail-latency claim from the evaluation promoted to a
// CI-enforceable statistical test: it re-runs the exact table cells
// the claim is about across independent seeded trials and requires
// the 95% confidence intervals of the two sides to separate — not
// merely the point estimates to order correctly. Gates run in go test
// and make check, so a claim that only holds for a lucky seed fails
// the build.
//
// A gate is a declaration over two cells of one table: it runs those
// cells' own functions, and its repro specs are their keys.
type Gate struct {
	Name  string
	Claim string
	// ID is the experiment whose table holds both cells.
	ID string
	// Metric is the compared value column's header key ("p99"); Unit
	// labels it in the verdict ("p99µs").
	Metric, Unit string
	// Subject is the cell the claim is about; Other is its baseline.
	Subject, Other GateSide
	// Subject's upper 95% bound must fall below Factor × Other's lower
	// bound — or, with Above, Other's upper bound below Factor ×
	// Subject's lower bound.
	Above  bool
	Factor float64
}

// A GateSide names one cell of a gate's table.
type GateSide struct {
	Label string // the side's name in samples and verdicts
	Key   string // key columns as repro-spec matches: "hogs=8,arbiter=wrr"
	Full  string // Key in full mode, when the full table's keys differ
}

// GateResult carries the verdict plus everything needed to chase a
// failure: the per-trial samples for each side and repro-tool specs
// (see ReproSpec) that replay the worst trial of each side.
type GateResult struct {
	Name    string
	Pass    bool
	Detail  string
	Samples map[string][]float64
	Repro   []string
}

// Gates returns every statistical gate in a stable order.
func Gates() []Gate {
	return []Gate{
		{
			Name:    "t7-arbiter-p99",
			Claim:   "WRR victim p99 CI upper bound < flat-RR lower bound (8 hogs, bypassd victim)",
			ID:      "T7",
			Metric:  "p99",
			Unit:    "p99µs",
			Subject: GateSide{Label: "wrr", Key: "hogs=8,victim=bypassd,arbiter=wrr"},
			Other:   GateSide{Label: "rr", Key: "hogs=8,victim=bypassd,arbiter=rr"},
			Factor:  1,
		},
		{
			// Past bypassd's IOPS knee (its ceiling sits ~12% below the
			// raw-LBA engines', §3.4) while the sync path is not: bypassd
			// must be WORSE here.
			Name:    "t8-saturation-knee",
			Claim:   "past bypassd's IOPS knee, bypassd p99 CI lower bound > sync upper bound",
			ID:      "T8",
			Metric:  "p99",
			Unit:    "p99µs",
			Subject: GateSide{Label: "bypassd", Key: "offered=1341,engine=bypassd", Full: "offered=1416,engine=bypassd"},
			Other:   GateSide{Label: "sync", Key: "offered=1341,engine=sync", Full: "offered=1416,engine=sync"},
			Above:   true,
			Factor:  1,
		},
		{
			Name:    "f6-read-latency",
			Claim:   "bypassd 4KB read mean latency CI upper bound < 0.75× sync lower bound",
			ID:      "F6",
			Metric:  "latency",
			Unit:    "latµs",
			Subject: GateSide{Label: "bypassd", Key: "block_size=4KB,engine=bypassd"},
			Other:   GateSide{Label: "sync", Key: "block_size=4KB,engine=sync"},
			Factor:  0.75,
		},
		{
			Name:    "f9-uring-collapse",
			Claim:   "io_uring IOPS at 16 threads CI upper bound < its 8-thread lower bound",
			ID:      "F9",
			Metric:  "iops",
			Unit:    "kIOPS",
			Subject: GateSide{Label: "16T", Key: "threads=16,engine=io_uring"},
			Other:   GateSide{Label: "8T", Key: "threads=8,engine=io_uring"},
			Factor:  1,
		},
	}
}

// GateByName resolves a gate.
func GateByName(name string) (Gate, bool) {
	for _, g := range Gates() {
		if g.Name == name {
			return g, true
		}
	}
	return Gate{}, false
}

// gateCell is one side of a gate resolved against its table.
type gateCell struct {
	Cell
	metric int     // index of the compared value
	div    float64 // the metric column's rendering scale
	match  []ReproKV
}

// resolve finds the first cell s's key selects in decl.
func (g Gate) resolve(decl *cellReport, s GateSide, quick bool) (gateCell, error) {
	key := s.Key
	if !quick && s.Full != "" {
		key = s.Full
	}
	sp, err := ParseReproSpec(g.ID + ":" + key)
	if err != nil {
		return gateCell{}, err
	}
	for _, t := range decl.tables {
		for _, ci := range t.pick(sp.Match, false) {
			for i, c := range t.cols {
				if headerKey(c.head) == g.Metric {
					return gateCell{t.cells[ci], i, c.div(), sp.Match}, nil
				}
			}
		}
	}
	return gateCell{}, fmt.Errorf("gate %s: no %s cell %q with a %q column", g.Name, g.ID, key, g.Metric)
}

// Run executes the gate's two cells for at least 5 trials (more if o
// asks) and renders the verdict.
func (g Gate) Run(o Options) (*GateResult, error) {
	o.Trials = max(o.Trials, 5)
	e, ok := ByID(g.ID)
	if !ok || e.cells == nil {
		return nil, fmt.Errorf("gate %s: %s declares no cells", g.Name, g.ID)
	}
	decl := e.cells(o)
	sides := [2]GateSide{g.Subject, g.Other}
	var gc [2]gateCell
	for i, s := range sides {
		var err error
		if gc[i], err = g.resolve(decl, s, o.Quick); err != nil {
			return nil, err
		}
	}
	vals, err := runTrials(o, []Cell{gc[0].Cell, gc[1].Cell})
	if err != nil {
		return nil, err
	}
	res := &GateResult{Name: g.Name, Samples: map[string][]float64{}}
	var w [2]stats.Welford
	for i, s := range sides {
		xs := make([]float64, len(vals[i]))
		for k, v := range vals[i] {
			xs[k] = v[gc[i].metric] / gc[i].div
			w[i].Add(xs[k])
		}
		res.Samples[s.Label] = xs
	}
	lo, hi := 0, 1 // the side that must be lower, and the other
	if g.Above {
		lo, hi = 1, 0
	}
	res.Pass, res.Detail = separated(sides[lo].Label+" "+g.Unit, &w[lo], sides[hi].Label+" "+g.Unit, &w[hi], g.Factor)
	for i, s := range sides {
		// The lower side's worst trial is its highest sample.
		res.Repro = append(res.Repro, ReproSpec{ID: g.ID, Match: gc[i].match, Seed: o.Seed,
			Trial: worstTrial(res.Samples[s.Label], i == lo), Faults: o.Faults, Full: !o.Quick}.String())
	}
	return res, nil
}

// worstTrial returns the index of the largest (hi=true) or smallest
// sample — the trial a failing gate most wants replayed.
func worstTrial(xs []float64, hi bool) int {
	best := 0
	for i, x := range xs {
		if (hi && x > xs[best]) || (!hi && x < xs[best]) {
			best = i
		}
	}
	return best
}

// separated renders the shared verdict detail: side a's upper bound
// against side b's lower bound (after scaling b's bound by factor).
func separated(aName string, a *stats.Welford, bName string, b *stats.Welford, factor float64) (bool, string) {
	up, lo := a.Upper95(), factor*b.Lower95()
	pass := up < lo
	rel := ""
	if factor != 1 {
		rel = fmt.Sprintf("%.2f×", factor)
	}
	return pass, fmt.Sprintf("%s mean %s upper95 %s %s %slower95 %s (%s mean %s) over %d trials",
		aName, stats.Fmt(a.Mean()), stats.Fmt(up), map[bool]string{true: "<", false: ">="}[pass],
		rel, stats.Fmt(lo), bName, stats.Fmt(b.Mean()), a.Count())
}
