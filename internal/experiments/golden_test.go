package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/metrics"
	"repro/internal/tenants"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenSuite is one committed reference rendering: the reports of ids
// run under o, concatenated in run order.
type goldenSuite struct {
	name string
	ids  []string
	o    Options
	// metrics, when set, names a second golden: the metrics registry
	// render of the same run, whose faults_injected_total series is
	// the run's fault tally.
	metrics string
}

// goldenSuites lists every committed rendering. T2 counts the repo's
// own lines of code, so it is the one experiment left out.
func goldenSuites() []goldenSuite {
	var quick []string
	for _, id := range IDs() {
		if id != "T2" {
			quick = append(quick, id)
		}
	}
	base := Options{Quick: true, Seed: 1, Parallelism: 2, Workers: 2}
	chaos, trials := base, base
	chaos.Faults = "chaos"
	trials.Trials = 3
	return []goldenSuite{
		{"quick", quick, base, ""},
		{"quick-chaos", quick, chaos, "quick-chaos-metrics"},
		{"trials3", trialedIDs(), trials, ""},
	}
}

func renderGoldenSuite(t *testing.T, s goldenSuite) string {
	t.Helper()
	exps := make([]Experiment, len(s.ids))
	for i, id := range s.ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		exps[i] = e
	}
	var b strings.Builder
	for _, r := range (&Runner{Parallelism: 2}).Run(exps, s.o) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		b.WriteString(r.Report.String())
		b.WriteString("\n")
	}
	return b.String()
}

// firstTableDiff locates the first line where got and want disagree
// and names the report section ("### ID — ...") and table ("== ... ==")
// it falls in.
func firstTableDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	section, table := "(start)", "(none)"
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("first difference in %s, table %s, line %d:\n got: %q\nwant: %q",
				section, table, i+1, gl, wl)
		}
		switch {
		case strings.HasPrefix(wl, "### "):
			section, table = wl, "(none)"
		case strings.HasPrefix(wl, "== "):
			table = wl
		}
	}
	return "outputs are equal"
}

// checkGolden compares got with testdata/golden/name.txt, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s diverged from %s; %s", name, path, firstTableDiff(got, string(want)))
	}
}

// TestGoldenOutputs pins every table byte for byte against the
// committed renderings in testdata/golden. A change that means to
// alter output regenerates them with `go test -run TestGoldenOutputs
// -update` and says why; any other difference is a regression.
func TestGoldenOutputs(t *testing.T) {
	for _, s := range goldenSuites() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			if s.metrics == "" {
				checkGolden(t, s.name, renderGoldenSuite(t, s))
				return
			}
			s.o.Metrics = metrics.NewRegistry()
			checkGolden(t, s.name, renderGoldenSuite(t, s))
			checkGolden(t, s.metrics, s.o.Metrics.Render())
		})
	}
}

// TestGoldenScenarios pins the tables bypassd-bench prints for one
// builtin tenant scenario (-tenants) and one builtin fleet (-frontend)
// at seed 1.
func TestGoldenScenarios(t *testing.T) {
	t.Run("tenants-noisy-neighbor-wrr-8", func(t *testing.T) {
		sc, _ := tenants.ByName("noisy-neighbor-wrr-8")
		res, _, err := tenants.RunCountedWorkers(1, sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "tenants-noisy-neighbor-wrr-8", tenants.ReportTable(sc, res).String())
	})
	t.Run("frontend-fleet-codel-2.0x", func(t *testing.T) {
		fl, _ := frontend.ByName("fleet-codel-2.0x")
		res, _, err := frontend.RunCountedWorkers(1, fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "frontend-fleet-codel-2.0x", frontend.ReportTable(fl, res).String())
	})
}
