package faults

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Fire("device/x/media") {
		t.Fatal("nil injector fired")
	}
	if _, ok := inj.FireDelayQ("device/x/delay", 3); ok {
		t.Fatal("nil injector fired delay")
	}
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	inj.Fire("device/x/media")
	if _, total := Fired(reg); total != 0 {
		t.Fatal("nil injector tallied a fire")
	}
}

func TestPeriodAndOneShot(t *testing.T) {
	inj := NewInjector(1, []Rule{
		{Site: "a", Period: 3},
		{Site: "b", Count: 1},
		{Site: "c", Start: 2},
	})
	var fires []bool
	for i := 0; i < 9; i++ {
		fires = append(fires, inj.Fire("a"))
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	if !reflect.DeepEqual(fires, want) {
		t.Fatalf("period fires = %v, want %v", fires, want)
	}
	if !inj.Fire("b") || inj.Fire("b") || inj.Fire("b") {
		t.Fatal("one-shot rule did not fire exactly once")
	}
	if inj.Fire("c") || inj.Fire("c") {
		t.Fatal("rule fired before Start decisions passed")
	}
	if !inj.Fire("c") {
		t.Fatal("rule did not fire after Start")
	}
}

func TestDefaultRuleFiresAlways(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "x"}})
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	for i := 0; i < 5; i++ {
		if !inj.Fire("x") {
			t.Fatalf("decision %d did not fire", i)
		}
	}
	if _, total := Fired(reg); total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
}

func TestGlobMatchAndQueueFilter(t *testing.T) {
	inj := NewInjector(1, []Rule{
		{Site: "device/*", Queue: 2},
	})
	if inj.FireQ("device/optane/media", 1) {
		t.Fatal("fired on wrong queue")
	}
	if !inj.FireQ("device/optane/media", 2) || !inj.FireQ("device/zssd/timeout", 2) {
		t.Fatal("glob rule did not match device sites on queue 2")
	}
	if inj.Fire("iommu/fault") {
		t.Fatal("glob rule leaked outside its prefix")
	}

	mid := NewInjector(1, []Rule{{Site: "device/*/media"}})
	if !mid.Fire("device/optane-p5800x/media") {
		t.Fatal("mid-glob did not match a device media site")
	}
	if mid.Fire("device/optane-p5800x/timeout") {
		t.Fatal("mid-glob matched the wrong site kind")
	}
	if mid.Fire("device/media") {
		t.Fatal("mid-glob matched a site missing the wildcard segment")
	}
}

func TestDelayPayload(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "d", Delay: 50 * sim.Microsecond}})
	dl, ok := inj.FireDelay("d")
	if !ok || dl != 50*sim.Microsecond {
		t.Fatalf("delay = %v, %v", dl, ok)
	}
}

func TestProbabilityDeterministicReplay(t *testing.T) {
	run := func() []bool {
		inj := NewInjector(42, []Rule{{Site: "p", Prob: 0.3}})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, inj.Fire("p"))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault streams")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.3 fired %d/%d times", fired, len(a))
	}
	c := NewInjector(43, []Rule{{Site: "p", Prob: 0.3}})
	var other []bool
	for i := 0; i < 200; i++ {
		other = append(other, c.Fire("p"))
	}
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestProbabilityStreamIndependentOfOtherSites(t *testing.T) {
	// Decisions on unrelated sites must not consume PRNG draws.
	a := NewInjector(7, []Rule{{Site: "p", Prob: 0.5}})
	b := NewInjector(7, []Rule{{Site: "p", Prob: 0.5}})
	var sa, sb []bool
	for i := 0; i < 100; i++ {
		a.Fire("unrelated/site")
		sa = append(sa, a.Fire("p"))
		sb = append(sb, b.Fire("p"))
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("unrelated decisions perturbed the probability stream")
	}
}

func TestCounts(t *testing.T) {
	inj := NewInjector(1, []Rule{{Site: "a"}, {Site: "b", Period: 2}})
	reg := metrics.NewRegistry()
	inj.Bind(reg)
	inj.Fire("a")
	inj.Fire("a")
	inj.Fire("b")
	inj.Fire("b")
	got, total := Fired(reg)
	if got["a"] != 2 || got["b"] != 1 || total != 3 {
		t.Fatalf("counts = %v, total = %d", got, total)
	}
}

func TestNewFromProfile(t *testing.T) {
	if inj, err := New("", 1); inj != nil || err != nil {
		t.Fatalf("empty profile = %v, %v; want an inert nil injector", inj, err)
	}
	if _, err := New("no-such-profile", 1); err == nil || !strings.Contains(err.Error(), "no-such-profile") {
		t.Fatalf("unknown profile error = %v", err)
	}
	inj, err := New("flaky-media", 9)
	p, _ := ProfileByName("flaky-media")
	if err != nil || !inj.Active() || len(inj.rules) != len(p.Rules) {
		t.Fatalf("injector = %+v, %v", inj, err)
	}
	// Every injector built from one (profile, seed) draws one stream.
	other, _ := New("flaky-media", 9)
	for i := 0; i < 200; i++ {
		if inj.Fire("device/d/media") != other.Fire("device/d/media") {
			t.Fatalf("decision %d differs between injectors of one (profile, seed)", i)
		}
	}
}

func TestFiresAggregateInRegistry(t *testing.T) {
	if got, total := Fired(nil); got != nil || total != 0 {
		t.Fatalf("nil registry read %v, %d", got, total)
	}
	reg := metrics.NewRegistry()
	a := NewInjector(1, []Rule{{Site: "g"}})
	b := NewInjector(2, []Rule{{Site: "g"}, {Site: "h"}})
	a.Bind(reg)
	b.Bind(reg)
	a.Fire("g")
	b.Fire("g")
	b.Fire("h")
	b.Fire("unarmed")
	got, total := Fired(reg)
	if total != 3 || !reflect.DeepEqual(got, map[string]int64{"g": 2, "h": 1}) {
		t.Fatalf("registry tally = %v (total %d)", got, total)
	}
}

func TestProfilesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if p.Name == "" || p.Desc == "" || len(p.Rules) == 0 {
			t.Fatalf("malformed profile %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		for _, r := range p.Rules {
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("profile %s rule %q has prob %v", p.Name, r.Site, r.Prob)
			}
			if r.Site == "" {
				t.Fatalf("profile %s has an empty site", p.Name)
			}
		}
		if _, ok := ProfileByName(p.Name); !ok {
			t.Fatalf("ProfileByName(%q) failed", p.Name)
		}
	}
}
