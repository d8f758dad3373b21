package tenants

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// small builds a quick noisy-neighbor scenario for tests.
func small(arbiter string, hogs int) Scenario {
	return NoisyNeighbor(arbiter, hogs, 400, 400)
}

func run(t *testing.T, seed int64, sc Scenario) []*Result {
	t.Helper()
	res, _, err := RunCountedWorkers(seed, sc, 1)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return res
}

// TestOpenLoopCompletes: every generated arrival is served, for both
// arrival processes and a writing tenant.
func TestOpenLoopCompletes(t *testing.T) {
	sc := Scenario{
		Name: "basic",
		Tenants: []Tenant{
			{Name: "poisson", Engine: core.EngineBypassD, RateOps: 50_000, Ops: 300, BS: 4096, FileBytes: 4 << 20, QD: 2, SLO: 20 * sim.Microsecond},
			{Name: "fixed", Engine: core.EngineBypassD, Arrival: workload.Fixed, RateOps: 50_000, Ops: 300, BS: 4096, FileBytes: 4 << 20},
			{Name: "writer", Engine: core.EngineSync, RateOps: 20_000, Ops: 200, BS: 8192, WriteFrac: 0.5, FileBytes: 4 << 20},
		},
	}
	for i, r := range run(t, 1, sc) {
		want := int64(sc.Tenants[i].Ops)
		if r.Ops != want {
			t.Errorf("%s: served %d of %d arrivals", r.Tenant.Name, r.Ops, want)
		}
		if r.Sojourn.Count() != want {
			t.Errorf("%s: histogram has %d samples", r.Tenant.Name, r.Sojourn.Count())
		}
		if r.End <= r.Start {
			t.Errorf("%s: window [%v,%v]", r.Tenant.Name, r.Start, r.End)
		}
	}
}

// TestOpenLoopSeesQueueing: driving one tenant far over device
// capacity must surface queueing delay — mean sojourn well above the
// uncontended service time, and a backlog — which a closed-loop
// harness cannot produce.
func TestOpenLoopSeesQueueing(t *testing.T) {
	sc := Scenario{
		Name: "overload",
		Tenants: []Tenant{{
			// 2M ops/s offered against a ~1.49M ops/s device.
			Name: "hot", Engine: core.EngineBypassD, RateOps: 2_000_000,
			Ops: 2000, BS: 4096, FileBytes: 8 << 20, QD: 8,
		}},
	}
	r := run(t, 1, sc)[0]
	if r.PeakBacklog < 50 {
		t.Errorf("peak backlog %d under 134%% load, want a growing queue", r.PeakBacklog)
	}
	if mean := r.Sojourn.Mean(); mean < 50*sim.Microsecond {
		t.Errorf("mean sojourn %v under overload, want queueing delay ≫ 5µs service time", mean)
	}
}

// TestArbiterProtectsVictim is the tentpole acceptance check: under
// ≥8 noisy neighbors, the WRR and token-bucket arbiters must hold the
// latency-sensitive tenant's p99 below flat round-robin's.
func TestArbiterProtectsVictim(t *testing.T) {
	p99 := map[string]sim.Time{}
	for _, arb := range []string{"rr", "wrr", "prio"} {
		res := run(t, 1, small(arb, 8))
		victim := res[0]
		if victim.Tenant.Name != "victim" {
			t.Fatal("victim not first")
		}
		if victim.Ops != int64(victim.Tenant.Ops) {
			t.Fatalf("%s: victim served %d", arb, victim.Ops)
		}
		p99[arb] = victim.Sojourn.Percentile(99)
	}
	if p99["wrr"] >= p99["rr"] {
		t.Errorf("victim p99: wrr %v !< rr %v", p99["wrr"], p99["rr"])
	}
	if p99["prio"] >= p99["rr"] {
		t.Errorf("victim p99: prio %v !< rr %v", p99["prio"], p99["rr"])
	}
}

// TestReplayByteIdentical: the same seed renders the same report,
// down to the byte, across runs.
func TestReplayByteIdentical(t *testing.T) {
	sc := small("wrr", 4)
	a := ReportTable(sc, run(t, 7, sc)).String()
	b := ReportTable(sc, run(t, 7, sc)).String()
	if a != b {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
	c := ReportTable(sc, run(t, 8, sc)).String()
	if a == c {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestTenantStorm: the tenant-storm fault profile injects arrival
// spikes and queue-full backpressure; the run must complete every
// arrival while the degradation counters record the events.
func TestTenantStorm(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Name:   "storm",
		Faults: "tenant-storm",
		Tenants: []Tenant{{
			Name: "t0", Engine: core.EngineBypassD, RateOps: 100_000,
			Ops: 1500, BS: 4096, FileBytes: 8 << 20, QD: 4,
			SLO: 30 * sim.Microsecond,
		}},
	}
	r := run(t, 3, sc)[0]
	if r.Ops != 1500 {
		t.Fatalf("storm run served %d of 1500 (degradation was not graceful)", r.Ops)
	}
	if r.Lib.Retries+r.Lib.Fallbacks == 0 {
		t.Error("no retries or fallbacks under queue-full backpressure")
	}
	if r.Lib.Fallbacks > 0 && r.Ops != 1500 {
		t.Error("fallbacks lost requests")
	}
	if r.PeakBacklog < faults.BurstArrivals {
		t.Errorf("peak backlog %d, want ≥ burst size %d", r.PeakBacklog, faults.BurstArrivals)
	}
	sc.Faults = "no-such-profile"
	if _, _, err := RunCountedWorkers(3, sc, 1); err == nil || !strings.Contains(err.Error(), "no-such-profile") {
		t.Errorf("unknown profile: err = %v, want one naming it", err)
	}
}

// TestConcurrentScenarios drives tenant submission through every
// arbiter from parallel goroutines (each on its own simulation) — the
// satellite -race check for the QoS plane.
func TestConcurrentScenarios(t *testing.T) {
	var wg sync.WaitGroup
	for _, arb := range []string{"rr", "wrr", "prio", "rr"} {
		arb := arb
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := RunCountedWorkers(5, small(arb, 4), 1)
			if err != nil {
				t.Errorf("%s: %v", arb, err)
				return
			}
			if res[0].Ops != int64(res[0].Tenant.Ops) {
				t.Errorf("%s: victim served %d", arb, res[0].Ops)
			}
		}()
	}
	wg.Wait()
}

// TestScenarioJSON: the -tenants config format round-trips and loads.
func TestScenarioJSON(t *testing.T) {
	sc := Scenario{
		Name:    "from-file",
		Arbiter: "prio",
		Tenants: []Tenant{{
			Name: "a", Engine: core.EngineBypassD, RateOps: 10_000, Ops: 50,
			BS: 4096, FileBytes: 1 << 20,
			QoS: nvme.QoS{Weight: 8, RateOps: 5_000},
			SLO: 25 * sim.Microsecond,
		}},
	}
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := workload.Load[Scenario](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sc.Name || got.Arbiter != sc.Arbiter || len(got.Tenants) != 1 {
		t.Fatalf("loaded %+v", got)
	}
	if got.Tenants[0].QoS != sc.Tenants[0].QoS || got.Tenants[0].SLO != sc.Tenants[0].SLO {
		t.Fatalf("tenant fields lost: %+v", got.Tenants[0])
	}
	if _, err := workload.Load[Scenario](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestBuiltinsRunnable: every named scenario validates and resolves.
func TestBuiltinsRunnable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Builtins() {
		if seen[sc.Name] {
			t.Errorf("duplicate builtin %q", sc.Name)
		}
		seen[sc.Name] = true
		for i := range sc.Tenants {
			if err := sc.Tenants[i].validate(); err != nil {
				t.Errorf("builtin %s: %v", sc.Name, err)
			}
		}
		if _, ok := ByName(sc.Name); !ok {
			t.Errorf("ByName(%q) failed", sc.Name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName resolved a bogus name")
	}
}

// TestStormEventCounts pins exactly what the TenantStorm and Sharded
// benchmarks' scenarios cost the simulator at seed 1: events
// dispatched, proc resumes among them, and resumes that switched
// coroutines. The goldens pin only virtual time, so this is what
// catches a refactor that adds or drops an event, a resume or a switch
// without moving a latency. The noisy-neighbor scenario is
// single-device and never arms the parallel drain; the four-SSD
// scale-out runs its traffic under the drain. Both counts hold at
// every worker count.
func TestStormEventCounts(t *testing.T) {
	for _, c := range []struct {
		sc                        Scenario
		events, resumes, switches uint64
	}{
		{NoisyNeighbor("wrr", 2, 200, 200), 5084, 3208, 2361},
		{ScaleOut(4, 400, 400), 26380, 16524, 11272},
	} {
		for _, workers := range []int{1, 2, 4} {
			_, s, err := runSim(1, c.sc, workers)
			if err != nil {
				t.Fatal(err)
			}
			if ev, res, sw := s.Processed(), s.Resumed(), s.Switched(); ev != c.events || res != c.resumes || sw != c.switches {
				t.Errorf("%s at %d workers: %d events, %d resumes, %d switches; want %d, %d, %d",
					c.sc.Name, workers, ev, res, sw, c.events, c.resumes, c.switches)
			}
		}
	}
}
