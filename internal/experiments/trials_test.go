package experiments

import (
	"os"
	"strings"
	"testing"
)

// trialedIDs lists, in run order, the harnesses declared as cells:
// the ones with a multi-trial rendering path.
func trialedIDs() []string {
	var ids []string
	for _, e := range All() {
		if e.cells != nil {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

func TestTrialSeedDerivation(t *testing.T) {
	o := Options{Seed: 42}
	if got := o.TrialSeed(0); got != 42 {
		t.Fatalf("TrialSeed(0) = %d, want the base seed", got)
	}
	if got := o.TrialSeed(3); got != 42+3*trialSeedStride {
		t.Fatalf("TrialSeed(3) = %d", got)
	}
	// Derivation is a pure function of (Seed, k): Parallelism and
	// Trials settings must not leak into it.
	alt := Options{Seed: 42, Trials: 9, Parallelism: 8}
	for k := 0; k < 5; k++ {
		if o.TrialSeed(k) != alt.TrialSeed(k) {
			t.Fatalf("TrialSeed(%d) depends on non-seed options", k)
		}
	}
	if (Options{}).trials() != 1 || (Options{Trials: -3}).trials() != 1 || (Options{Trials: 7}).trials() != 7 {
		t.Fatal("trials() normalization broken")
	}
}

// Cross-seed determinism: a multi-trial table must render
// byte-identically at -j1 and -j8, and across two runs of the same
// seed — the trial fan-out inherits the sweep runner's "seeds come
// from coordinates, never execution order" invariant.
func TestMultiTrialTablesDeterministic(t *testing.T) {
	render := func(par int) string {
		var b strings.Builder
		for _, id := range trialedIDs() {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			rep, err := e.Run(Options{Quick: true, Seed: 5, Trials: 3, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			b.WriteString(rep.String())
		}
		return b.String()
	}
	j1 := render(1)
	j8 := render(8)
	if j1 != j8 {
		t.Fatalf("multi-trial tables differ between -j1 and -j8:\n-j1:\n%s\n-j8:\n%s", j1, j8)
	}
	if again := render(8); again != j8 {
		t.Fatal("multi-trial tables differ between two same-seed runs")
	}
	for _, want := range []string{"3 trials, 95% CI", "ci95", "±", "span"} {
		if !strings.Contains(j1, want) {
			t.Fatalf("multi-trial rendering missing %q:\n%s", want, j1)
		}
	}
}

// Backward compatibility: Trials unset (0) and Trials=1 must both
// take the historical single-trial path, byte for byte, with none of
// the CI columns.
func TestTrialsDefaultByteIdentical(t *testing.T) {
	for _, id := range trialedIDs() {
		e, _ := ByID(id)
		def, err := e.Run(Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		one, err := e.Run(Options{Quick: true, Seed: 1, Trials: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if def.String() != one.String() {
			t.Fatalf("%s: Trials=0 and Trials=1 disagree:\n%s\nvs\n%s", id, def.String(), one.String())
		}
		if strings.Contains(def.String(), "ci95") || strings.Contains(def.String(), "trials") {
			t.Fatalf("%s: single-trial table grew trial columns:\n%s", id, def.String())
		}
	}
}

// The committed full-scale report is the compatibility contract: the
// default (single-trial) path must still reproduce its tables. T1,
// T4, and F5 are pinned because they are mode- and scale-independent
// (constant calibration tables); T2 counts lines of code and so
// legitimately drifts with every PR.
func TestDefaultPathMatchesCommittedResults(t *testing.T) {
	data, err := os.ReadFile("../../docs/results-full.md")
	if err != nil {
		t.Fatalf("committed results missing: %v", err)
	}
	doc := string(data)
	for _, id := range []string{"T1", "T4", "F5"} {
		marker := "### " + id + " — "
		start := strings.Index(doc, marker)
		if start < 0 {
			t.Fatalf("results-full.md has no section %q", marker)
		}
		block := doc[start:]
		if end := strings.Index(block[1:], "\n### "); end >= 0 {
			block = block[:1+end]
		}
		e, _ := ByID(id)
		rep, err := e.Run(Options{Quick: false, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got, want := strings.TrimRight(rep.String(), "\n"), strings.TrimRight(block, "\n"); got != want {
			t.Fatalf("%s: default output diverged from docs/results-full.md:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}
