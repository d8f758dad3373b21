package frontend

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// testFleet is a small two-device fleet sized so every test cell runs
// in well under a second.
func testFleet(policy Policy, frac float64) Fleet {
	return ServiceFleet(policy, frac, 2, 8, 4000, 8000)
}

func TestFleetValidation(t *testing.T) {
	base := testFleet(AdmitAll, 1)
	cases := []struct {
		name string
		mut  func(*Fleet)
	}{
		{"zero pool", func(fl *Fleet) { fl.Pool = 0 }},
		{"pool above cap", func(fl *Fleet) { fl.Pool = MaxPool + 1 }},
		{"pool under devices", func(fl *Fleet) { fl.Pool = 1; fl.Devices = 2 }},
		{"users under devices", func(fl *Fleet) { fl.Users = 1; fl.Devices = 2 }},
		{"no rate", func(fl *Fleet) { fl.RateOps = 0 }},
		{"bad shape", func(fl *Fleet) { fl.Shape = "square" }},
		{"bad policy", func(fl *Fleet) { fl.Admission = "lifo" }},
		{"token without rate", func(fl *Fleet) { fl.Admission = AdmitToken; fl.TokenRate = 0 }},
		{"bad hot frac", func(fl *Fleet) { fl.HotFrac = 1.5 }},
		{"bad write frac", func(fl *Fleet) { fl.WriteFrac = -0.1 }},
		{"spdk engine", func(fl *Fleet) { fl.Engine = core.EngineSPDK }},
		{"unknown backend", func(fl *Fleet) { fl.Backend = "rocks" }},
	}
	for _, tc := range cases {
		fl := base
		tc.mut(&fl)
		if _, _, err := RunCountedWorkers(1, fl, 1); err == nil {
			t.Errorf("%s: fleet accepted", tc.name)
		}
	}
	// The read-only backend silently forces WriteFrac to zero rather
	// than erroring.
	fl := base
	fl.Backend = "bpfkv"
	fl.WriteFrac = 0.5
	fl.Users, fl.Requests = 400, 800
	if _, _, err := RunCountedWorkers(1, fl, 1); err != nil {
		t.Fatalf("bpfkv fleet with writes requested: %v", err)
	}
}

func TestFleetJSONRoundTrip(t *testing.T) {
	fl := testFleet(AdmitToken, 2)
	fl.Shape = workload.Bursty
	data, err := json.MarshalIndent(fl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := workload.Load[Fleet](path)
	if err != nil {
		t.Fatal(err)
	}
	if got != fl {
		t.Fatalf("round trip changed the fleet:\n%+v\nvs\n%+v", got, fl)
	}
	if _, err := workload.Load[Fleet](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// render runs a fleet and renders its report — the byte-level
// fingerprint the determinism tests compare.
func render(t *testing.T, seed int64, fl Fleet, workers int) string {
	t.Helper()
	res, _, err := RunCountedWorkers(seed, fl, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ReportTable(fl, res).String()
}

// TestWorkerInvariance is the tentpole determinism gate: a
// multi-device fleet must render byte-identically at every shard
// worker count, for each admission policy (they exercise different
// event interleavings: door sheds, dequeue drops, condition waits).
func TestWorkerInvariance(t *testing.T) {
	for _, policy := range []Policy{AdmitAll, AdmitToken, AdmitCoDel} {
		fl := testFleet(policy, 2)
		ref := render(t, 42, fl, 1)
		for _, w := range []int{2, 4} {
			if got := render(t, 42, fl, w); got != ref {
				t.Errorf("%s: report at workers=%d differs from workers=1:\n%s\nvs\n%s",
					policy, w, got, ref)
			}
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	fl := testFleet(AdmitCoDel, 2)
	if render(t, 7, fl, 1) != render(t, 7, fl, 2) {
		t.Fatal("same seed diverged")
	}
	if render(t, 7, fl, 1) == render(t, 8, fl, 1) {
		t.Fatal("different seeds produced identical fleets")
	}
}

// TestUserCoverage checks the tier's population guarantee: with flat
// admission and enough requests, every one of the fleet's distinct
// users is served at least once — including an odd population that
// does not divide evenly across devices.
func TestUserCoverage(t *testing.T) {
	fl := testFleet(AdmitAll, 0.8)
	fl.Users = 4001
	fl.Requests = int(fl.Users) * 13 / 10
	res, _, err := RunCountedWorkers(3, fl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.UsersServed(); got != int64(fl.Users) {
		t.Fatalf("served %d distinct users, want all %d", got, fl.Users)
	}
	if res.Offered() != int64(fl.Requests) {
		t.Fatalf("offered %d, want %d", res.Offered(), fl.Requests)
	}
	if res.Completed() != res.Admitted() {
		t.Fatalf("admitted %d but completed %d", res.Admitted(), res.Completed())
	}
}

// TestAdmissionAtSaturation is the satellite acceptance gate: at 2x
// the pool's capacity, flat admission must violate the SLO (its
// sojourn is pure backlog), while both real policies shed load and
// keep the admitted tail at or near the SLO — token pacing strictly
// inside it.
func TestAdmissionAtSaturation(t *testing.T) {
	run := func(policy Policy) *Result {
		res, _, err := RunCountedWorkers(42, testFleet(policy, 2), 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slo := testFleet(AdmitAll, 2).SLO

	flat := run(AdmitAll)
	if flat.Shed() != 0 {
		t.Fatalf("flat admission shed %d requests", flat.Shed())
	}
	if p99 := flat.Sojourn().Summarize().P99; p99 <= slo {
		t.Fatalf("flat baseline p99 %v inside the %v SLO: the cell is not saturated", p99, slo)
	}
	if c := flat.SLOCompliance(); c > 50 {
		t.Fatalf("flat baseline SLO compliance %.1f%%, want a clear violation", c)
	}

	token := run(AdmitToken)
	if token.Shed() == 0 {
		t.Fatal("token policy shed nothing at 2x saturation")
	}
	if p99 := token.Sojourn().Summarize().P99; p99 > slo {
		t.Fatalf("token admitted p99 %v outside the %v SLO", p99, slo)
	}

	codel := run(AdmitCoDel)
	if codel.Shed() == 0 {
		t.Fatal("codel policy shed nothing at 2x saturation")
	}
	if c := codel.SLOCompliance(); c < 95 {
		t.Fatalf("codel SLO compliance %.1f%%, want >= 95%%", c)
	}
	if codel.Goodput() <= token.Goodput() {
		t.Fatalf("codel goodput %.0f <= token %.0f: dequeue shedding should serve more than door pacing",
			codel.Goodput(), token.Goodput())
	}
}

// TestBackends smokes each KV backend end to end, with writes where
// the store supports them.
func TestBackends(t *testing.T) {
	for _, bk := range []string{"wtiger", "kvell", "bpfkv"} {
		fl := testFleet(AdmitAll, 0.2)
		fl.Backend = bk
		fl.Users, fl.Requests = 600, 1200
		fl.WriteFrac = 0.3
		fl.StoreKeys = 512
		res, _, err := RunCountedWorkers(11, fl, 1)
		if err != nil {
			t.Fatalf("%s: %v", bk, err)
		}
		if res.Completed() != int64(fl.Requests) {
			t.Fatalf("%s: completed %d of %d", bk, res.Completed(), fl.Requests)
		}
		if res.Sojourn().Summarize().P50 <= 0 {
			t.Fatalf("%s: no sojourn signal", bk)
		}
	}
}

// TestLoadShapes runs the shaped builtin fleets: the diurnal and
// bursty streams must deliver the full request count deterministically.
func TestLoadShapes(t *testing.T) {
	for _, name := range []string{"fleet-diurnal", "fleet-bursty"} {
		fl, ok := ByName(name)
		if !ok {
			t.Fatalf("%s not a builtin", name)
		}
		fl.Users, fl.Requests = 2000, 4000
		res, _, err := RunCountedWorkers(5, fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Offered() != int64(fl.Requests) {
			t.Fatalf("%s: offered %d, want %d", name, res.Offered(), fl.Requests)
		}
		if render(t, 5, fl, 1) != render(t, 5, fl, 2) {
			t.Fatalf("%s: shaped fleet not worker-invariant", name)
		}
	}
}

// TestTenantStorm degrades the fleet gracefully under the arrival
// fault profile: spikes fire, the policy sheds harder, and the run
// still completes without error.
func TestTenantStorm(t *testing.T) {
	t.Parallel()
	fl := testFleet(AdmitCoDel, 1)
	fl.Faults = "tenant-storm"
	res, _, err := RunCountedWorkers(42, fl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bursts() == 0 {
		t.Fatal("tenant-storm injected no arrival spikes")
	}
	if res.Completed() == 0 {
		t.Fatal("fleet served nothing under the storm")
	}
	if res.Completed()+res.Shed() != res.Offered() {
		t.Fatalf("accounting leak: %d completed + %d shed != %d offered",
			res.Completed(), res.Shed(), res.Offered())
	}
	// Spike transients ride through CoDel's interval hysteresis before
	// the controller trips, so compliance dips below the steady-state
	// figure — graceful means the served tail stays mostly protected.
	if c := res.SLOCompliance(); c < 80 {
		t.Fatalf("storm compliance %.1f%% among admitted: shedding did not protect the served tail", c)
	}
}

// TestBuiltins resolves every builtin by name and rejects unknowns.
func TestBuiltins(t *testing.T) {
	for _, fl := range Builtins() {
		got, ok := ByName(fl.Name)
		if !ok || got.Name != fl.Name {
			t.Fatalf("builtin %q does not resolve", fl.Name)
		}
	}
	if _, ok := ByName("no-such-fleet"); ok {
		t.Fatal("unknown fleet resolved")
	}
}

// TestMillionUsers is the headline scale check at a size CI can
// afford: one full-scale arithmetic pass plus a scaled end-to-end run.
// The partition walk must cover 2^20 users exactly (full T10 relies
// on it), verified here structurally per device.
func TestMillionUsers(t *testing.T) {
	const users = 1 << 20
	const ndev = 4
	var total uint64
	for d := 0; d < ndev; d++ {
		total += partSize(users, ndev, d)
	}
	if total != users {
		t.Fatalf("partitions cover %d users, want %d", total, users)
	}
	if testing.Short() {
		return
	}
	// An end-to-end slice: a fleet with a 2^20 population in quick
	// proportions would take minutes, so cover 2^17 users here; the
	// full T10 table (docs/results-full.md) runs the 2^20 cells.
	fl := ServiceFleet(AdmitAll, 0.8, ndev, 16, 1<<17, (1<<17)*13/10)
	res, _, err := RunCountedWorkers(42, fl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.UsersServed(); got != 1<<17 {
		t.Fatalf("served %d distinct users, want %d", got, 1<<17)
	}
}

// TestFleetEventCounts pins exactly what the FrontendThroughput
// benchmark's token fleet costs the simulator at seed 1: events
// dispatched, proc resumes among them, and resumes that switched
// coroutines, the same at every worker count of the parallel drain.
// The goldens pin only virtual time, so this is what catches a
// refactor that adds or drops an event, a resume or a switch without
// moving a latency.
func TestFleetEventCounts(t *testing.T) {
	fl := ServiceFleet(AdmitToken, 2.0, 2, 8, 4000, 8000)
	for _, workers := range []int{1, 2, 4} {
		_, s, err := runSim(1, fl, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ev, res, sw := s.Processed(), s.Resumed(), s.Switched(); ev != 38323 || res != 28038 || sw != 20050 {
			t.Errorf("token fleet at %d workers: %d events, %d resumes, %d switches; want 38323, 28038, 20050",
				workers, ev, res, sw)
		}
	}
}
