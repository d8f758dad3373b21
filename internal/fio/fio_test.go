package fio

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestSingleThread4KReadLatencies(t *testing.T) {
	want := map[core.Engine][2]sim.Time{ // [lo, hi] bounds
		core.EngineSync:    {7600, 8200},
		core.EngineLibaio:  {7600, 9200},
		core.EngineUring:   {6000, 7800},
		core.EngineSPDK:    {4300, 4900},
		core.EngineBypassD: {4800, 5600},
	}
	for e, bounds := range want {
		res, err := Run(Spec{}, []Group{{
			Name: "main", Engine: e, BS: 4096, Threads: 1,
			OpsPerThread: 50, FileBytes: 16 << 20,
		}})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		m := res["main"].Lat.Mean()
		if m < bounds[0] || m > bounds[1] {
			t.Errorf("%s 4K read mean = %v, want [%v, %v]", e, m, bounds[0], bounds[1])
		}
	}
}

func TestWritesSeeNoTranslationOverhead(t *testing.T) {
	run := func(e core.Engine) sim.Time {
		res, err := Run(Spec{}, []Group{{
			Name: "w", Engine: e, Write: true, BS: 4096, Threads: 1,
			OpsPerThread: 50, FileBytes: 16 << 20,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res["w"].Lat.Mean()
	}
	spdk, byp := run(core.EngineSPDK), run(core.EngineBypassD)
	// Paper §4.3: writes overlap VBA translation with the data
	// transfer, so the bypassd-spdk gap shrinks to the library
	// interception cost, well under the 550ns read gap.
	gap := byp - spdk
	if gap > 300*sim.Nanosecond {
		t.Fatalf("write gap bypassd-spdk = %v, want < 300ns (translation hidden)", gap)
	}
}

func TestThroughputScalesUntilSaturation(t *testing.T) {
	iops := map[int]float64{}
	for _, threads := range []int{1, 8} {
		res, err := Run(Spec{}, []Group{{
			Name: "r", Engine: core.EngineBypassD, BS: 4096, Threads: threads,
			OpsPerThread: 200, FileBytes: 8 << 20,
		}})
		if err != nil {
			t.Fatal(err)
		}
		iops[threads] = res["r"].IOPS()
	}
	if iops[8] < 4*iops[1] {
		t.Fatalf("scaling broken: 1T=%.0f 8T=%.0f", iops[1], iops[8])
	}
	// Device ceiling ~1.49M IOPS.
	if iops[8] > 1.6e6 {
		t.Fatalf("8T IOPS %.0f exceeds device ceiling", iops[8])
	}
}

func TestVBAFixedLatencySweep(t *testing.T) {
	bw := func(delay sim.Time) float64 {
		res, err := Run(Spec{IOMMU: func(c *iommu.Config) { c.FixedVBALatency = delay }}, []Group{{
			Name: "r", Engine: core.EngineBypassD, BS: 4096, Threads: 1,
			OpsPerThread: 100, FileBytes: 16 << 20,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res["r"].Bandwidth()
	}
	noDelay, slow := bw(0), bw(1350*sim.Nanosecond)
	if noDelay <= slow {
		t.Fatalf("bandwidth should drop with translation latency: %0.f vs %0.f", noDelay, slow)
	}
	// Even at 1.35µs translation, bypassd beats sync (Fig. 8).
	resSync, err := Run(Spec{}, []Group{{
		Name: "r", Engine: core.EngineSync, BS: 4096, Threads: 1,
		OpsPerThread: 100, FileBytes: 16 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if slow <= resSync["r"].Bandwidth() {
		t.Fatalf("bypassd@1.35µs (%.0f) should still beat sync (%.0f)", slow, resSync["r"].Bandwidth())
	}
}

func TestMultiProcessSharing(t *testing.T) {
	// Fig. 10: multiple writer processes share the device with
	// bypassd; spdk refuses.
	res, err := Run(Spec{}, []Group{{
		Name: "w", Engine: core.EngineBypassD, Write: true, BS: 4096,
		Threads: 4, OpsPerThread: 100, FileBytes: 8 << 20, ProcessPerThread: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res["w"].Ops != 400 {
		t.Fatalf("ops = %d, want 400", res["w"].Ops)
	}
	_, err = Run(Spec{}, []Group{{
		Name: "w", Engine: core.EngineSPDK, Write: true, BS: 4096,
		Threads: 4, OpsPerThread: 100, FileBytes: 8 << 20, ProcessPerThread: true,
	}})
	if err == nil {
		t.Fatal("spdk multi-process run should fail")
	}
}

func TestBackgroundGroupStopsWithForeground(t *testing.T) {
	res, err := Run(Spec{}, []Group{
		{
			Name: "fg", Engine: core.EngineBypassD, BS: 4096, Threads: 1,
			OpsPerThread: 100, FileBytes: 8 << 20,
		},
		{
			Name: "bg", Engine: core.EngineSync, BS: 4096, Threads: 2,
			OpsPerThread: 0, FileBytes: 8 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res["fg"].Ops != 100 {
		t.Fatalf("fg ops = %d", res["fg"].Ops)
	}
	if res["bg"].Ops == 0 {
		t.Fatal("background group did no work")
	}
	// Foreground latency under contention exceeds the idle latency.
	if res["fg"].Lat.Mean() < 5*sim.Microsecond {
		t.Fatalf("fg latency %v implausibly low under background load", res["fg"].Lat.Mean())
	}
}

// TestFailedForegroundStopsBackground fails the foreground worker
// mid-run with media errors on the kernel queue it alone uses (the
// background group submits on its own BypassD queue): the failed
// worker must still count toward stopping the background group, so
// Run ends and returns the worker's error.
func TestFailedForegroundStopsBackground(t *testing.T) {
	inj := faults.NewInjector(1, []faults.Rule{{Site: "device/*/media", Queue: 1, Start: 40}})
	_, err := Run(Spec{Observers: kernel.Observers{Faults: inj}}, []Group{
		{
			Name: "fg", Engine: core.EngineSync, BS: 4096, Threads: 1,
			OpsPerThread: 1000, FileBytes: 8 << 20,
		},
		{
			Name: "bg", Engine: core.EngineBypassD, BS: 4096, Threads: 1,
			FileBytes: 8 << 20,
		},
	})
	if err == nil || !strings.Contains(err.Error(), "fio fg worker 0") {
		t.Fatalf("Run error = %v, want the fg worker's media error", err)
	}
}

func TestBreakdownStatsPresentForBypassD(t *testing.T) {
	res, err := Run(Spec{}, []Group{{
		Name: "r", Engine: core.EngineBypassD, BS: 65536, Threads: 1,
		OpsPerThread: 20, FileBytes: 16 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := res["r"]
	if r.DeviceNS == 0 || r.UserNS == 0 {
		t.Fatalf("breakdown missing: dev=%v user=%v", r.DeviceNS, r.UserNS)
	}
	// Fig. 7: at 64K most non-device time is the user copy.
	perOpUser := r.UserNS / sim.Time(r.Ops)
	if perOpUser < 3*sim.Microsecond {
		t.Fatalf("user time per 64K op = %v, want multi-µs copy", perOpUser)
	}
}

func TestInvalidSpecs(t *testing.T) {
	if _, err := Run(Spec{}, []Group{{Name: "x", Engine: core.EngineSync, BS: 100, Threads: 1, OpsPerThread: 1, FileBytes: 1 << 20}}); err == nil {
		t.Fatal("unaligned bs accepted")
	}
	if _, err := Run(Spec{}, []Group{{Name: "x", Engine: core.EngineSync, BS: 4096, Threads: 1, FileBytes: 1 << 20}}); err == nil {
		t.Fatal("all-background spec accepted")
	}
}
