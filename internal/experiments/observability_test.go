package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// runObserved runs the given experiments with a fresh trace collector
// and metrics registry and returns (rendered reports, rendered trace,
// rendered metrics).
func runObserved(t *testing.T, parallelism int, ids ...string) (string, string, string) {
	t.Helper()
	col, reg := trace.NewCollector(trace.Options{}), metrics.NewRegistry()

	var reports strings.Builder
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		rep, err := e.Run(Options{Quick: true, Seed: 1, Parallelism: parallelism, Metrics: reg, Trace: col})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		reports.WriteString(rep.String())
	}
	tr, err := col.Render()
	if err != nil {
		t.Fatalf("trace render: %v", err)
	}
	return reports.String(), string(tr), reg.Render()
}

// TestObservabilityByteIdenticalAcrossParallelism extends the PR 1
// invariant to the observability plane: the rendered trace and the
// metrics registry must be byte-identical at -j 1 and -j 8, not just
// the reports.
func TestObservabilityByteIdenticalAcrossParallelism(t *testing.T) {
	ids := []string{"T6", "F6"}
	rep1, tr1, m1 := runObserved(t, 1, ids...)
	rep8, tr8, m8 := runObserved(t, 8, ids...)
	if rep1 != rep8 {
		t.Errorf("reports differ between -j 1 and -j 8")
	}
	if tr1 != tr8 {
		t.Errorf("trace differs between -j 1 and -j 8")
	}
	if m1 != m8 {
		t.Errorf("metrics differ between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", m1, m8)
	}
	if !strings.Contains(tr1, `"ph":"X"`) || !strings.Contains(tr1, `"process_name"`) {
		t.Fatalf("trace has no spans:\n%.400s", tr1)
	}
	if !strings.Contains(m1, "io_ops_total") || !strings.Contains(m1, "device_ops_total") {
		t.Fatalf("metrics registry missing expected series:\n%s", m1)
	}
}

// TestObserversArePerRun runs two experiments at the same time: T6
// with its own metrics registry and trace collector, F6 with none.
// Every machine is born with its own run's observers, so under -race
// neither run may reach the other's: the observed run's registry and
// trace must equal its sequential run's, and both reports must equal
// their golden renderings.
func TestObserversArePerRun(t *testing.T) {
	quick, err := os.ReadFile(filepath.Join("testdata", "golden", "quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Quick: true, Seed: 1, Parallelism: 2, Workers: 2}
	observed := func() (rep, tr, reg string, err error) {
		o := base
		o.Metrics, o.Trace = metrics.NewRegistry(), trace.NewCollector(trace.Options{})
		e, _ := ByID("T6")
		r, err := e.Run(o)
		if err != nil {
			return "", "", "", err
		}
		b, err := o.Trace.Render()
		return r.String(), string(b), o.Metrics.Render(), err
	}
	wantRep, wantTr, wantReg, err := observed()
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg                    sync.WaitGroup
		gotRep, gotTr, gotReg string
		plain                 *Report
		errObserved, errPlain error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotRep, gotTr, gotReg, errObserved = observed()
	}()
	go func() {
		defer wg.Done()
		e, _ := ByID("F6")
		plain, errPlain = e.Run(base)
	}()
	wg.Wait()
	if errObserved != nil || errPlain != nil {
		t.Fatalf("observed T6: %v; unobserved F6: %v", errObserved, errPlain)
	}
	if gotReg != wantReg {
		t.Errorf("T6 registry differs from its sequential run:\n--- sequential ---\n%s--- concurrent ---\n%s", wantReg, gotReg)
	}
	if gotTr != wantTr {
		t.Error("T6 trace differs from its sequential run")
	}
	if !strings.Contains(gotReg, "io_ops_total") || !strings.Contains(gotTr, `"ph":"X"`) {
		t.Fatalf("observed run recorded nothing:\n%s", gotReg)
	}
	for _, rep := range []string{wantRep, gotRep, plain.String()} {
		if !strings.Contains(string(quick), rep+"\n") {
			t.Errorf("report differs from its golden rendering:\n%s", rep)
		}
	}
}

// TestTracingDoesNotPerturbReports checks the observer effect is zero:
// a run with the trace and metrics planes armed renders exactly the
// same report as a clean run (tracing charges no virtual time).
func TestTracingDoesNotPerturbReports(t *testing.T) {
	e, ok := ByID("F6")
	if !ok {
		t.Fatal("F6 not registered")
	}
	clean, err := e.Run(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	observed, err := e.Run(Options{Quick: true, Seed: 1,
		Metrics: metrics.NewRegistry(), Trace: trace.NewCollector(trace.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	if clean.String() != observed.String() {
		t.Errorf("tracing perturbed the report:\n--- clean ---\n%s--- observed ---\n%s",
			clean.String(), observed.String())
	}
}

// TestT6Shape pins the Fig. 5-analogue attribution: the direct paths
// (BypassD, SPDK) spend far less in submit than the kernel interfaces,
// only BypassD pays visible translation, and media time — the same
// device — matches across all five.
func TestT6Shape(t *testing.T) {
	rep := runQuick(t, "T6")
	tb := rep.Tables[0]
	submit := func(iface string) float64 { return num(t, cell(t, tb, "submit (µs)", iface)) }
	media := func(iface string) float64 { return num(t, cell(t, tb, "media (µs)", iface)) }

	if b, s := submit("BypassD"), submit("BIO"); b > s/3 {
		t.Fatalf("BypassD submit %v not well below BIO %v", b, s)
	}
	if d, a := submit("SPDK"), submit("AIO"); d > a/3 {
		t.Fatalf("SPDK submit %v not well below AIO %v", d, a)
	}
	if tr := num(t, cell(t, tb, "translate (µs)", "BypassD")); tr <= 0 {
		t.Fatalf("BypassD translate = %v, want > 0 (ATS walk)", tr)
	}
	for _, iface := range []string{"BIO", "AIO", "SPDK", "XRP"} {
		if tr := num(t, cell(t, tb, "translate (µs)", iface)); tr != 0 {
			t.Fatalf("%s translate = %v, want 0 (physical addressing)", iface, tr)
		}
	}
	base := media("BypassD")
	for _, iface := range []string{"BIO", "AIO", "SPDK", "XRP"} {
		if m := media(iface); m < 0.9*base || m > 1.1*base {
			t.Fatalf("%s media %v diverges from BypassD media %v (same device!)", iface, m, base)
		}
	}
	// The cross-check column: attributed total == e2e mean (runT6
	// enforces 1%; the rendered values should agree to the shown
	// precision too).
	for _, iface := range []string{"BypassD", "BIO", "AIO", "SPDK", "XRP"} {
		tot := num(t, cell(t, tb, "total (µs)", iface))
		mean := num(t, cell(t, tb, "e2e mean (µs)", iface))
		if diff := tot - mean; diff < -0.05 || diff > 0.05 {
			t.Fatalf("%s: total %v vs e2e mean %v", iface, tot, mean)
		}
	}
}
