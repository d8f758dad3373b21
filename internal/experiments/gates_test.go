package experiments

import (
	"testing"

	"repro/internal/stats"
)

// TestStatisticalGates is the CI enforcement of the evaluation's tail
// claims (ISSUE 7 acceptance): each gate runs its two table cells
// across 5 independent seeds and the 95% confidence intervals must
// separate — a point-estimate ordering that only holds for a lucky
// seed fails here.
func TestStatisticalGates(t *testing.T) {
	for _, g := range Gates() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			res, err := g.Run(Options{Quick: true, Seed: 1, Parallelism: 2})
			if err != nil {
				t.Fatalf("gate error: %v", err)
			}
			if !res.Pass {
				t.Fatalf("claim %q does not hold: %s", g.Claim, res.Detail)
			}
			if len(res.Samples) != 2 {
				t.Fatalf("want samples for both sides, got %d", len(res.Samples))
			}
			for side, xs := range res.Samples {
				if len(xs) != 5 {
					t.Fatalf("side %s ran %d trials, want 5", side, len(xs))
				}
			}
			if len(res.Repro) != 2 {
				t.Fatalf("want one repro spec per side, got %v", res.Repro)
			}
			for _, spec := range res.Repro {
				sp, err := ParseReproSpec(spec)
				if err != nil {
					t.Fatalf("gate emitted unparseable repro spec %q: %v", spec, err)
				}
				if sp.ID == "" || len(sp.Match) == 0 {
					t.Fatalf("repro spec %q does not pin a cell", spec)
				}
			}
		})
	}
}

func TestGateByName(t *testing.T) {
	if _, ok := GateByName("t7-arbiter-p99"); !ok {
		t.Fatal("t7-arbiter-p99 not found")
	}
	if _, ok := GateByName("no-such-gate"); ok {
		t.Fatal("bogus gate resolved")
	}
}

// TestGateReproRoundTrip is the acceptance check for the repro tool:
// a cell the T7 gate flags must replay to the exact recorded value
// when re-run from its spec — same cell, same derived seed, same
// byte-rendered p99.
func TestGateReproRoundTrip(t *testing.T) {
	o := Options{Quick: true, Seed: 1, Parallelism: 2}
	g, ok := GateByName("t7-arbiter-p99")
	if !ok {
		t.Fatal("t7-arbiter-p99 not found")
	}
	res, err := g.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Repro[0] is the wrr side's worst trial.
	sp, err := ParseReproSpec(res.Repro[0])
	if err != nil {
		t.Fatalf("parse %q: %v", res.Repro[0], err)
	}
	run, err := RunRepro(sp, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("replay %q: %v", res.Repro[0], err)
	}
	if want := (Options{Seed: sp.Seed}).TrialSeed(sp.Trial); run.DerivedSeed != want {
		t.Fatalf("derived seed %d, want %d", run.DerivedSeed, want)
	}
	if len(run.Matches) != 1 {
		t.Fatalf("spec %q matched %d rows, want exactly the flagged cell", res.Repro[0], len(run.Matches))
	}
	m := run.Matches[0]
	p99Col := -1
	for i, h := range m.Headers {
		if h == "p99 (µs)" {
			p99Col = i
		}
	}
	if p99Col < 0 {
		t.Fatalf("no p99 column in %v", m.Headers)
	}
	recorded := res.Samples["wrr"][sp.Trial]
	if got, want := m.Row[p99Col], stats.Fmt(recorded); got != want {
		t.Fatalf("replayed p99 %q != recorded trial value %q (trial %d, seed %d)",
			got, want, sp.Trial, run.DerivedSeed)
	}
}
