package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// faultTestIDs is a small, fast subset of experiments that exercises
// the userlib direct path, the kernel path, and SPDK under injection.
var faultTestIDs = []string{"F5", "F6"}

func runWithFaults(t *testing.T, id, profile string, seed int64, par int) string {
	t.Helper()
	return runWith(t, id, Options{Quick: true, Seed: seed, Parallelism: par, Faults: profile})
}

// runWith runs one experiment through a Runner under o and renders its
// report.
func runWith(t *testing.T, id string, o Options) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res := (&Runner{Parallelism: 1}).Run([]Experiment{e}, o)
	if res[0].Err != nil {
		t.Fatalf("%s under %q: %v", id, o.Faults, res[0].Err)
	}
	return res[0].Report.String()
}

// TestFaultedRunsReplay is the PR's determinism criterion: with a
// fixed seed and profile, two runs of the same experiment render
// byte-identical reports.
func TestFaultedRunsReplay(t *testing.T) {
	for _, profile := range []string{"flaky-media", "revoke-storm"} {
		for _, id := range faultTestIDs {
			a := runWithFaults(t, id, profile, 7, 1)
			b := runWithFaults(t, id, profile, 7, 1)
			if a != b {
				t.Errorf("%s under %q: two runs with the same seed differ:\n--- first ---\n%s\n--- second ---\n%s",
					id, profile, a, b)
			}
		}
	}
}

// TestFaultedRunsParallelismInvariant extends the byte-identical
// guarantee to faulted runs: sweep-cell parallelism must not change a
// faulted report, because each cell's machines own private injectors.
func TestFaultedRunsParallelismInvariant(t *testing.T) {
	for _, id := range faultTestIDs {
		seq := runWithFaults(t, id, "chaos", 3, 1)
		par := runWithFaults(t, id, "chaos", 3, 8)
		if seq != par {
			t.Errorf("%s under chaos: report differs between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq, par)
		}
	}
}

// TestRevokeStormParallelTranslation drives the translation fast path
// (WalkRange streaming, PWC lookups, indexed IOTLB invalidation)
// concurrently with fmap attach / revoke detach across parallel sweep
// cells under the revoke-storm profile. Each cell owns a private
// machine, so under -race this guards the fast path's data-sharing
// discipline (resident *Node pointers must never leak across cells);
// it also pins -j invariance for the revoke-heavy workload.
func TestRevokeStormParallelTranslation(t *testing.T) {
	for _, id := range faultTestIDs {
		seq := runWithFaults(t, id, "revoke-storm", 11, 1)
		par := runWithFaults(t, id, "revoke-storm", 11, 8)
		if seq != par {
			t.Errorf("%s under revoke-storm: report differs between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seq, par)
		}
	}
}

// TestCleanRunUnaffectedByPriorFaults guards the "disabled injector is
// structurally invisible" property: a clean run after a faulted run is
// byte-identical to a clean run before any profile was ever armed.
func TestCleanRunUnaffectedByPriorFaults(t *testing.T) {
	e, ok := ByID("F6")
	if !ok {
		t.Fatal("F6 not registered")
	}
	clean := func() string {
		res := (&Runner{Parallelism: 1}).Run([]Experiment{e},
			Options{Quick: true, Seed: 1, Parallelism: 1})
		if res[0].Err != nil {
			t.Fatalf("clean run: %v", res[0].Err)
		}
		return res[0].Report.String()
	}
	before := clean()
	faulted := runWithFaults(t, "F6", "chaos", 1, 1)
	after := clean()
	if before != after {
		t.Errorf("clean report changed after a faulted run:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if faulted == before {
		t.Log("chaos profile injected nothing into F6 (report identical)")
	}
}

// TestRunUnknownFaultProfile: a typo'd profile must fail every
// experiment rather than silently running un-faulted.
func TestRunUnknownFaultProfile(t *testing.T) {
	e, _ := ByID("F5")
	res := (&Runner{Parallelism: 1}).Run([]Experiment{e},
		Options{Quick: true, Seed: 1, Faults: "no-such-profile"})
	if res[0].Err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if !strings.Contains(res[0].Err.Error(), "no-such-profile") {
		t.Fatalf("error %q does not name the bad profile", res[0].Err)
	}
}

// TestFaultCountersSurface: a faulted run must leave per-site fire
// counts in the metrics registry, where an operator inspects them
// after the run.
func TestFaultCountersSurface(t *testing.T) {
	reg := metrics.NewRegistry()
	_ = runWith(t, "F6", Options{Quick: true, Seed: 42, Parallelism: 1, Faults: "flaky-media", Metrics: reg})
	counts, total := faults.Fired(reg)
	if total == 0 {
		t.Fatal("flaky-media run recorded no injected faults")
	}
	for site := range counts {
		if !strings.HasPrefix(site, "device/") {
			t.Errorf("flaky-media fired at %q, outside its device rules", site)
		}
	}
}

// TestConcurrentFaultProfiles runs two experiments under different
// fault profiles at the same time. Each machine owns its injector, so
// under -race neither run may see the other's profile: both reports
// must match their sequential renderings byte for byte.
func TestConcurrentFaultProfiles(t *testing.T) {
	runs := []struct{ id, profile string }{{"F5", "revoke-storm"}, {"F6", "chaos"}}
	want := make([]string, len(runs))
	for i, r := range runs {
		want[i] = runWithFaults(t, r.id, r.profile, 5, 1)
	}
	got := make([]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := ByID(r.id)
			res := (&Runner{Parallelism: 1}).Run([]Experiment{e},
				Options{Quick: true, Seed: 5, Parallelism: 2, Faults: r.profile})
			if res[0].Err == nil {
				got[i] = res[0].Report.String()
			}
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if got[i] != want[i] {
			t.Errorf("%s under %q: concurrent report differs from its sequential run:\n--- sequential ---\n%s\n--- concurrent ---\n%s",
				r.id, r.profile, want[i], got[i])
		}
	}
}
