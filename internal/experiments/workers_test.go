package experiments

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tenants"
)

// runWorkers renders an experiment's tables at a given shard-worker
// count (Options.Workers — the parallel drain inside each
// multi-device cell, not the sweep-cell pool).
func runWorkers(t *testing.T, id string, workers int) string {
	t.Helper()
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	rep, err := exp.Run(Options{Quick: true, Seed: 42, Parallelism: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range rep.Tables {
		sb.WriteString(tb.String())
	}
	return sb.String()
}

// TestReportsWorkerInvariant is the tentpole acceptance gate at the
// table layer: the tenancy and frontend reports must render
// byte-identically at every worker count. T9's and T10's multi-device
// cells actually exercise the parallel drain; T7/T8 are single-device
// and must ignore the knob.
func TestReportsWorkerInvariant(t *testing.T) {
	for _, id := range []string{"T7", "T8", "T9", "T10"} {
		ref := runWorkers(t, id, 1)
		for _, w := range []int{2, 8} {
			if got := runWorkers(t, id, w); got != ref {
				t.Errorf("%s: report at -workers %d differs from -workers 1:\n%s\nvs\n%s", id, w, got, ref)
			}
		}
	}
}

// TestScaleOutMetricsWorkerInvariant compares full metrics snapshots
// of a 4-device tenant storm across worker counts: every counter and
// histogram the run touches — tenant ops, sojourn histograms, IOMMU
// and device series — must land on identical values, not just the
// rendered rows.
func TestScaleOutMetricsWorkerInvariant(t *testing.T) {
	snapshot := func(workers int) (string, uint64) {
		sc := tenants.ScaleOut(4, 200, 200)
		sc.Metrics = metrics.NewRegistry()
		res, events, err := tenants.RunCountedWorkers(42, sc, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].Ops == 0 {
			t.Fatal("scale-out run produced no work")
		}
		return sc.Metrics.Render(), events
	}
	refRender, refEvents := snapshot(1)
	for _, w := range []int{2, 8} {
		render, events := snapshot(w)
		if events != refEvents {
			t.Errorf("workers %d processed %d events, want %d", w, events, refEvents)
		}
		if render != refRender {
			t.Errorf("workers %d metrics snapshot differs from sequential:\n%s\nvs\n%s", w, render, refRender)
		}
	}
}
