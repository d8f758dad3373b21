package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/stats"
)

// A Cell is one row of a trial-aware table: its key columns, rendered
// exactly as the table prints them (the col=val pairs a repro spec
// pins), and a function from one trial's workload seed to that
// trial's per-column values, index-aligned with the table's columns.
type Cell struct {
	key []string
	run func(seed int64) ([]float64, error)
}

// Column visibility: some columns appear only in the historical
// single-trial table, some only in the multi-trial one.
const (
	always = iota
	singleTrial
	multiTrial
)

// A column renders one per-trial value of every cell: its cross-trial
// mean and, in multi-trial tables, an optional ±CI95 column and an
// optional min..max span column right after it.
type column struct {
	head  string
	scale float64              // rendered value = raw / scale; 0 means 1
	fmt   func(float64) string // nil renders like Table.AddRow's float cells
	ci    string               // header of the multi-trial ±CI95 column
	span  string               // header of the multi-trial min..max column
	only  int                  // always, singleTrial or multiTrial
	// speedup renders the mean as a ratio to the base cell's mean.
	speedup bool
}

func (c column) shown(multi bool) bool {
	return c.only == always || (c.only == multiTrial) == multi
}

func (c column) div() float64 {
	if c.scale == 0 {
		return 1
	}
	return c.scale
}

// in returns c shown only in the given table mode.
func (c column) in(only int) column {
	c.only = only
	return c
}

// The latency and SLO columns several tables share; latency values
// are nanoseconds, rendered in µs.
var (
	p50Col  = column{head: "p50 (µs)", scale: 1e3}
	p99Col  = column{head: "p99 (µs)", scale: 1e3, ci: "p99 ci95", span: "p99 span (µs)"}
	p999Col = column{head: "p999 (µs)", scale: 1e3, span: "p999 span (µs)"}
	sloCol  = column{head: "SLO met (%)", fmt: pct1, ci: "slo ci95"}
)

// plain declares one column per header, each rendered like
// Table.AddRow's float cells.
func plain(heads ...string) []column {
	cols := make([]column, len(heads))
	for i, h := range heads {
		cols[i].head = h
	}
	return cols
}

// pct1 and count are the two non-float value formats tables use.
func pct1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func count(v float64) string { return strconv.FormatInt(int64(v), 10) }

// orNA renders a NaN value — a cell the system cannot run, like the
// paper's empty bars — as text, and any other value as a float cell.
func orNA(text string) func(float64) string {
	return func(v float64) string {
		if math.IsNaN(v) {
			return text
		}
		return stats.Fmt(v)
	}
}

// A cellTable is one rendered table of a trial-aware experiment.
type cellTable struct {
	title string
	keys  []string // key column headers, aligned with every cell's key
	cols  []column
	// base marks cells[0] as the reference row of speedup columns.
	base  bool
	cells []Cell
}

// A cellReport declares a trial-aware experiment: its tables of cells
// and the report title and notes around them.
type cellReport struct {
	title  string
	notes  []string
	tables []*cellTable
}

// registerCells registers an experiment declared as cells. Its Run
// fans every cell out across trials and renders through one path.
func registerCells(id, title string, decl func(Options) *cellReport) {
	registry[id] = Experiment{ID: id, Title: title, cells: decl,
		Run: func(o Options) (*Report, error) { return decl(o).run(id, o) }}
}

// runTrials fans cells × trials through the sweep pool: out[c][k] is
// cell c's values at seed o.TrialSeed(k). Seeds come from coordinates,
// never execution order, so results are identical at any Parallelism.
func runTrials(o Options, cells []Cell) ([][][]float64, error) {
	n := o.trials()
	flat, err := sweepMap(o, len(cells)*n, func(i int) ([]float64, error) {
		return cells[i/n].run(o.TrialSeed(i % n))
	})
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, len(cells))
	for c := range out {
		out[c] = flat[c*n : (c+1)*n]
	}
	return out, nil
}

// folded is one value of one cell accumulated across its trials.
type folded struct {
	w      stats.Welford
	lo, hi float64
}

func fold(trials [][]float64) []folded {
	out := make([]folded, len(trials[0]))
	for k, vals := range trials {
		for i, v := range vals {
			f := &out[i]
			f.w.Add(v)
			if k == 0 || v < f.lo {
				f.lo = v
			}
			if k == 0 || v > f.hi {
				f.hi = v
			}
		}
	}
	return out
}

func (t *cellTable) headers(multi bool) []string {
	h := append([]string(nil), t.keys...)
	for _, c := range t.cols {
		if !c.shown(multi) {
			continue
		}
		h = append(h, c.head)
		if multi && c.ci != "" {
			h = append(h, c.ci)
		}
		if multi && c.span != "" {
			h = append(h, c.span)
		}
	}
	return h
}

func (t *cellTable) row(key []string, agg, base []folded, multi bool) []string {
	r := append([]string(nil), key...)
	for i, c := range t.cols {
		if !c.shown(multi) {
			continue
		}
		a, d := agg[i], c.div()
		switch {
		case c.speedup && t.base && base[i].w.Mean() > 0:
			r = append(r, fmt.Sprintf("%.2fx", a.w.Mean()/base[i].w.Mean()))
		case c.speedup:
			r = append(r, "-")
		case c.fmt != nil:
			r = append(r, c.fmt(a.w.Mean()/d))
		default:
			r = append(r, stats.Fmt(a.w.Mean()/d))
		}
		if multi && c.ci != "" {
			r = append(r, "±"+stats.Fmt(a.w.CI95()/d))
		}
		if multi && c.span != "" {
			r = append(r, stats.Fmt(a.lo/d)+".."+stats.Fmt(a.hi/d))
		}
	}
	return r
}

// run executes every cell of every table for o.trials() trials and
// renders the report: one row per cell, cross-trial means throughout,
// CI and span columns plus a trial note when there is more than one
// trial.
func (r *cellReport) run(id string, o Options) (*Report, error) {
	var all []Cell
	for _, t := range r.tables {
		all = append(all, t.cells...)
	}
	vals, err := runTrials(o, all)
	if err != nil {
		return nil, err
	}
	multi := o.trials() > 1
	rep := &Report{ID: id, Title: r.title, Notes: append([]string(nil), r.notes...)}
	for _, t := range r.tables {
		title := t.title
		if multi {
			title = trialTitle(title, o)
		}
		tb := stats.NewTable(title, t.headers(multi)...)
		var base []folded
		if t.base {
			base = fold(vals[0])
		}
		for _, c := range t.cells {
			tb.Rows = append(tb.Rows, t.row(c.key, fold(vals[0]), base, multi))
			vals = vals[1:]
		}
		rep.Tables = append(rep.Tables, tb)
	}
	if multi {
		rep.Notes = append(rep.Notes, trialNote(o))
	}
	return rep, nil
}

// pick returns the indices of t's cells a spec's constraints select:
// a cell is kept when every constraint on a key column equals its key.
// Constraints on value columns filter rendered rows later; a
// constraint on a column t does not have selects nothing.
func (t *cellTable) pick(match []ReproKV, multi bool) []int {
	col := map[string]int{}
	for _, h := range t.headers(multi) {
		col[headerKey(h)] = -1
	}
	for i := len(t.keys) - 1; i >= 0; i-- {
		col[headerKey(t.keys[i])] = i
	}
	for _, kv := range match {
		if _, ok := col[kv.Key]; !ok {
			return nil
		}
	}
	var out []int
next:
	for ci, c := range t.cells {
		for _, kv := range match {
			if i := col[kv.Key]; i >= 0 && c.key[i] != kv.Value {
				continue next
			}
		}
		out = append(out, ci)
	}
	return out
}

// only narrows r to the cells a spec's constraints select, keeping a
// table's base cell whenever any of its cells stays. Tables left
// without cells are dropped.
func (r *cellReport) only(match []ReproKV, multi bool) *cellReport {
	out := *r
	out.tables = nil
	for _, t := range r.tables {
		idx := t.pick(match, multi)
		if len(idx) == 0 {
			continue
		}
		if t.base && idx[0] != 0 {
			idx = append([]int{0}, idx...)
		}
		nt := *t
		nt.cells = make([]Cell, len(idx))
		for i, ci := range idx {
			nt.cells[i] = t.cells[ci]
		}
		out.tables = append(out.tables, &nt)
	}
	return &out
}
