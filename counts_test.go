package bypassd

import (
	"testing"

	"repro/internal/frontend"
	"repro/internal/tenants"
)

// TestDirect4KReadEventCounts pins what a warm 4 KiB BypassD read
// costs the simulator, exactly: 6 events, of which 3 are proc resumes
// (the app's submit compute, completion wait and copy compute). The
// other 3 — the device's fetch, service start and media completion —
// run as callbacks. The counters are read from inside the reading
// proc, so the spawn that starts it (one more event and resume per
// Run, which Direct4KRead's per-op counts include) stays out. A change
// that adds a coroutine switch or an event to the headline path fails
// here, where ns/op would hide it in host noise.
func TestDirect4KReadEventCounts(t *testing.T) {
	const reads = 16
	sys, io, fd, buf := bootDirect4K(t)
	defer sys.Close()
	var events, resumes uint64
	Run(sys, "count", func(p *Proc) {
		events, resumes = sys.Sim.Processed(), sys.Sim.Resumed()
		for i := 0; i < reads; i++ {
			if _, err := io.Pread(p, fd, buf, 4096); err != nil {
				t.Error(err)
				return
			}
		}
		events, resumes = sys.Sim.Processed()-events, sys.Sim.Resumed()-resumes
	})
	if events != 6*reads || resumes != 3*reads {
		t.Fatalf("%d warm 4 KiB reads took %d events and %d proc resumes; want exactly 6 and 3 per read (got %.2f, %.2f)",
			reads, events, resumes, float64(events)/reads, float64(resumes)/reads)
	}
}

// TestOpenLoopEventCounts pins the exact event counts of the two
// open-loop planes' benchmark setups at seed 1: the TenantStorm
// noisy-neighbor scenario and the FrontendThroughput token fleet, the
// latter at 1 and 4 workers. The goldens pin only virtual time, so
// this is what catches a refactor that adds or drops an event in
// either plane without moving a latency.
func TestOpenLoopEventCounts(t *testing.T) {
	_, events, err := tenants.RunCountedWorkers(1, tenants.NoisyNeighbor("wrr", 2, 200, 200), 1)
	if err != nil {
		t.Fatal(err)
	}
	if events != 5084 {
		t.Errorf("tenant storm: %d events, want 5084", events)
	}
	fl := frontend.ServiceFleet(frontend.AdmitToken, 2.0, 2, 8, 4000, 8000)
	for _, workers := range []int{1, 4} {
		_, events, err := frontend.RunCountedWorkers(1, fl, workers)
		if err != nil {
			t.Fatal(err)
		}
		if events != 38323 {
			t.Errorf("frontend fleet at %d workers: %d events, want 38323", workers, events)
		}
	}
}
