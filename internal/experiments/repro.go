package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ReproKV is one column=value constraint a repro spec matches table
// rows against.
type ReproKV struct {
	Key   string // normalized header key: lowercase, unit suffix stripped
	Value string // exact rendered cell text
}

// ReproSpec names one table cell of one experiment at one seed — the
// coordinates a statistical gate (or a suspicious report reader)
// records so `bypassd-repro` can replay exactly that anomaly.
//
// Grammar:
//
//	ID[:key=value[,key=value...]][@opt[,opt...]]
//
// where ID is an experiment (T7, F9, ...), each key=value pins a
// table column (keys use '_' for spaces: block_size=4KB), and opts
// are seed=N, trial=K, trials=N, faults=NAME, and full. trial=K
// replays the single k-th trial of a multi-trial run at its derived
// seed; trials=N instead re-runs the whole N-trial aggregation.
// Omitted opts default to seed=1, trial 0, single trial, no faults,
// quick mode — matching the CLI defaults the tables were built with.
//
// Because trial k's workload seed is Seed + k*stride, a single-trial
// spec has aliases: seed=1000004 names the same replay as
// seed=1,trial=1. Specs are canonicalized to the (base seed, trial
// index) form — base seed in [1, stride] — at parse and render time,
// so equal replays compare equal as strings and a cell's identity is
// unambiguous in logs and gate reports.
type ReproSpec struct {
	ID     string
	Match  []ReproKV
	Seed   int64
	Trial  int
	Trials int
	Faults string
	Full   bool
}

// ParseReproSpec parses the spec grammar above. The parser is
// deliberately independent of the experiment registry so specs for
// harnesses that don't exist yet still round-trip (RunRepro is where
// unknown IDs fail).
func ParseReproSpec(in string) (ReproSpec, error) {
	sp := ReproSpec{Seed: 1}
	s := strings.TrimSpace(in)
	head, opts, hasOpts := strings.Cut(s, "@")
	id, matches, hasMatches := strings.Cut(head, ":")
	if err := validIdent(id, "experiment id"); err != nil {
		return ReproSpec{}, err
	}
	sp.ID = id
	if hasMatches {
		if matches == "" {
			return ReproSpec{}, fmt.Errorf("repro spec %q: empty match section after ':'", in)
		}
		for _, kv := range strings.Split(matches, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" || v == "" {
				return ReproSpec{}, fmt.Errorf("repro spec %q: match %q is not key=value", in, kv)
			}
			if strings.ContainsAny(v, "=") {
				return ReproSpec{}, fmt.Errorf("repro spec %q: match value %q contains '='", in, v)
			}
			sp.Match = append(sp.Match, ReproKV{
				Key:   strings.ToLower(strings.ReplaceAll(k, "_", " ")),
				Value: v,
			})
		}
	}
	if !hasOpts {
		return sp, nil
	}
	if opts == "" {
		return ReproSpec{}, fmt.Errorf("repro spec %q: empty options section after '@'", in)
	}
	for _, opt := range strings.Split(opts, ",") {
		k, v, hasVal := strings.Cut(opt, "=")
		switch {
		case k == "full" && !hasVal:
			sp.Full = true
		case k == "seed" && hasVal:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return ReproSpec{}, fmt.Errorf("repro spec %q: bad seed %q", in, v)
			}
			sp.Seed = n
		case k == "trial" && hasVal:
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return ReproSpec{}, fmt.Errorf("repro spec %q: bad trial %q", in, v)
			}
			sp.Trial = n
		case k == "trials" && hasVal:
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return ReproSpec{}, fmt.Errorf("repro spec %q: bad trials %q", in, v)
			}
			if n == 1 {
				n = 0 // trials=1 is the single-trial default; canonical form omits it
			}
			sp.Trials = n
		case k == "faults" && hasVal:
			if err := validIdent(v, "faults profile"); err != nil {
				return ReproSpec{}, err
			}
			sp.Faults = v
		default:
			return ReproSpec{}, fmt.Errorf("repro spec %q: unknown option %q (want seed=, trial=, trials=, faults=, full)", in, opt)
		}
	}
	sp.normalize()
	return sp, nil
}

// normalize rewrites an aliased single-trial spec to its canonical
// (base seed, trial index) coordinates. TrialSeed(Trial) is invariant
// under the rewrite: moving q strides out of the seed and into the
// trial index names the same derived seed, so the replay is
// unchanged. Multi-trial specs (trials=N) aggregate from the base
// seed directly and have no alias to fold.
func (s *ReproSpec) normalize() {
	if s.Trials > 1 || s.Seed <= trialSeedStride {
		return
	}
	q := (s.Seed - 1) / trialSeedStride
	if q > int64(math.MaxInt-s.Trial) {
		return // folding would overflow the trial index; leave the alias alone
	}
	s.Seed -= q * trialSeedStride
	s.Trial += int(q)
}

func validIdent(s, what string) error {
	if s == "" {
		return fmt.Errorf("empty %s", what)
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("%s %q: invalid character %q", what, s, r)
		}
	}
	return nil
}

// String renders the canonical form of the spec: seed always written
// and folded to its (base seed, trial index) form, zero trial /
// single trial / no faults / quick omitted, match keys with spaces
// spelled '_'. Parsing a canonical string and re-rendering it is the
// identity (FuzzReproSpec pins this).
func (s ReproSpec) String() string {
	s.normalize()
	var b strings.Builder
	b.WriteString(s.ID)
	for i, kv := range s.Match {
		if i == 0 {
			b.WriteString(":")
		} else {
			b.WriteString(",")
		}
		b.WriteString(strings.ReplaceAll(kv.Key, " ", "_"))
		b.WriteString("=")
		b.WriteString(kv.Value)
	}
	fmt.Fprintf(&b, "@seed=%d", s.Seed)
	if s.Trial > 0 {
		fmt.Fprintf(&b, ",trial=%d", s.Trial)
	}
	if s.Trials > 1 {
		fmt.Fprintf(&b, ",trials=%d", s.Trials)
	}
	if s.Faults != "" {
		fmt.Fprintf(&b, ",faults=%s", s.Faults)
	}
	if s.Full {
		b.WriteString(",full")
	}
	return b.String()
}

// MatchedCell is one table row a repro spec's constraints selected.
type MatchedCell struct {
	Table   string
	Headers []string
	Row     []string
}

// ReproRun is the replayed result: the replayed report (so surrounding
// context is visible) plus just the rows the spec pinned.
type ReproRun struct {
	Spec        ReproSpec
	DerivedSeed int64 // the workload seed the replay actually ran at
	Report      *Report
	Matches     []MatchedCell
}

// RunRepro replays the experiment a spec names and selects the rows it
// pins. Single-trial specs run at the derived seed TrialSeed(trial) —
// reproducing one trial of a multi-trial table, or (trial 0) the
// historical single-trial row. trials=N specs re-run the whole
// aggregation instead. Faults are armed exactly as the Runner arms
// them, so fault-profile anomalies replay too.
//
// An experiment declared as cells runs only the cells whose key
// columns the spec pins, plus a table's base cell when another of its
// cells reads it, so the report holds just those rows. Other
// experiments run whole; in both, constraints on value columns filter
// the rendered rows.
//
// run supplies the replay's Parallelism and observers (Metrics, Trace);
// the spec sets everything else.
func RunRepro(sp ReproSpec, run Options) (*ReproRun, error) {
	e, ok := ByID(sp.ID)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (have: %s)", sp.ID, strings.Join(IDs(), " "))
	}
	o := Options{Quick: !sp.Full, Seed: sp.Seed, Parallelism: run.Parallelism, Faults: sp.Faults,
		Metrics: run.Metrics, Trace: run.Trace}
	derived := sp.Seed
	if sp.Trials > 1 {
		o.Trials = sp.Trials
	} else {
		derived = o.TrialSeed(sp.Trial)
		o.Seed = derived
	}
	var headers []string
	if e.cells != nil {
		decl, multi := e.cells(o), o.trials() > 1
		headers = decl.tables[0].headers(multi)
		e.Run = func(o Options) (*Report, error) { return decl.only(sp.Match, multi).run(e.ID, o) }
	}
	res := (&Runner{Parallelism: o.Parallelism}).Run([]Experiment{e}, o)
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	rr := &ReproRun{Spec: sp, DerivedSeed: derived, Report: res[0].Report}
	for _, tb := range rr.Report.Tables {
		keys := make([]string, len(tb.Headers))
		for i, h := range tb.Headers {
			keys[i] = headerKey(h)
		}
		for _, row := range tb.Rows {
			if rowMatches(sp.Match, keys, row) {
				rr.Matches = append(rr.Matches, MatchedCell{Table: tb.Title, Headers: tb.Headers, Row: row})
			}
		}
	}
	if len(sp.Match) > 0 && len(rr.Matches) == 0 {
		if headers == nil {
			headers = rr.Report.Tables[0].Headers
		}
		return nil, fmt.Errorf("spec %s matched no rows of %s (check keys against headers: %s)",
			sp, sp.ID, strings.Join(headers, ", "))
	}
	return rr, nil
}

// headerKey normalizes a table header for spec matching: lowercase,
// unit annotation stripped — "SLO met (%)" and "p99 (µs)" match as
// "slo met" and "p99".
func headerKey(h string) string {
	h = strings.ToLower(h)
	if i := strings.Index(h, " ("); i >= 0 {
		h = h[:i]
	}
	return h
}

func rowMatches(match []ReproKV, keys []string, row []string) bool {
	for _, kv := range match {
		found := false
		for i, k := range keys {
			if k == kv.Key && i < len(row) {
				if strings.TrimSpace(row[i]) != kv.Value {
					return false
				}
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
