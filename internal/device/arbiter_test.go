package device

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// preload creates n queues with depth entries each and submits depth
// 512 B reads per queue, so every queue is persistently non-empty
// until drained.
func preload(t *testing.T, d *SSD, qos []nvme.QoS, depth int) []*nvme.QueuePair {
	t.Helper()
	qs := make([]*nvme.QueuePair, len(qos))
	for i := range qos {
		q, err := d.CreateQueue(0, depth)
		if err != nil {
			t.Fatal(err)
		}
		q.QoS = qos[i]
		qs[i] = q
	}
	buf := make([]byte, 512)
	for _, q := range qs {
		for n := 0; n < depth; n++ {
			if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(n), SLBA: int64(n), Sectors: 1, Buf: buf}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return qs
}

// served reaps q's posted completions and returns how many there
// were: with nothing else reaping, the commands the device served on q
// since the last call.
func served(q *nvme.QueuePair) (n int64) {
	for {
		if _, ok := q.PopCQE(); !ok {
			return n
		}
		n++
	}
}

// snapshotAt posts a callback at virtual time t that records every
// queue's service count then: the mid-drain view the arbiter bounds
// check. The counts are filled in once Run passes t.
func snapshotAt(s *sim.Sim, qs []*nvme.QueuePair, t sim.Time) []int64 {
	counts := make([]int64, len(qs))
	s.AtOn(0, t, func() {
		for i, q := range qs {
			counts[i] = served(q)
		}
	})
	return counts
}

// spread returns the smallest and largest of counts.
func spread(counts []int64) (lo, hi int64) {
	lo, hi = counts[0], counts[0]
	for _, c := range counts[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}

// TestFlatRRSaturatedEqualService is the fairness regression test for
// the default arbiter: with every queue persistently non-empty, the
// starting-index rotation must hand out equal service counts — a scan
// that always restarted at index 0 would drain queue 1 first.
func TestFlatRRSaturatedEqualService(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	const depth = 256
	qs := preload(t, d, make([]nvme.QoS, 4), depth)

	// Mid-drain: roughly half the commands are done; every queue is
	// still backlogged, so service counts must match to within the
	// commands still in flight on the six channels.
	mid := snapshotAt(s, qs, 300*sim.Microsecond)
	s.Run()
	if lo, hi := spread(mid); lo == 0 || hi-lo > int64(d.Config().Channels) {
		t.Fatalf("saturated RR service counts spread [%d,%d], want equal within %d", lo, hi, d.Config().Channels)
	}
	for i, q := range qs {
		if c := mid[i] + served(q); c != depth {
			t.Fatalf("queue %d served %d, want %d", q.ID, c, depth)
		}
	}
	s.Shutdown()
}

// TestWRRWeightedShares: backlogged queues receive grants in
// proportion to their QoS weights.
func TestWRRWeightedShares(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewWRR())
	qs := preload(t, d, []nvme.QoS{{Weight: 3}, {Weight: 1}}, 400)

	// Short of the heavy queue's drain point, so both stay backlogged.
	mid := snapshotAt(s, qs, 150*sim.Microsecond)
	s.Run()
	s.Shutdown()
	heavy, light := mid[0], mid[1]
	if light == 0 {
		t.Fatal("light queue starved under WRR")
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("WRR share ratio = %.2f (%d/%d), want ~3", ratio, heavy, light)
	}
}

// TestWRREqualWeightsEqualService: with uniform weights the fair
// arbiter degenerates to round-robin service counts.
func TestWRREqualWeightsEqualService(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewWRR())
	qs := preload(t, d, make([]nvme.QoS, 4), 256)

	mid := snapshotAt(s, qs, 300*sim.Microsecond)
	s.Run()
	s.Shutdown()
	if lo, hi := spread(mid); lo == 0 || hi-lo > int64(d.Config().Channels) {
		t.Fatalf("equal-weight WRR service counts spread [%d,%d]", lo, hi)
	}
}

// TestTokenPrioStrictPriority: a backlogged priority-0 queue starves a
// backlogged priority-1 queue until it drains.
func TestTokenPrioStrictPriority(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewTokenPrio())
	qs := preload(t, d, []nvme.QoS{{Priority: 0}, {Priority: 1}}, 64)

	// ~42 grants fit in 25µs on six 3.5µs channels: all must go to
	// the high-priority queue while it is still backlogged.
	mid := snapshotAt(s, qs, 25*sim.Microsecond)
	s.Run()
	if hi := mid[0]; hi < 30 {
		t.Fatalf("priority-0 queue served %d in 25µs, want ≥30", hi)
	}
	if lo := mid[1]; lo != 0 {
		t.Fatalf("priority-1 queue served %d while priority-0 backlogged, want 0", lo)
	}
	if a, b := mid[0]+served(qs[0]), mid[1]+served(qs[1]); a != 64 || b != 64 {
		t.Fatalf("final service counts %d/%d, want 64/64", a, b)
	}
	s.Shutdown()
}

// TestTokenPrioRateLimit: a rate-capped queue is held to its token
// rate while an uncapped queue soaks up the rest of the device.
func TestTokenPrioRateLimit(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewTokenPrio())
	qs := preload(t, d, []nvme.QoS{
		{Priority: 1},
		{Priority: 0, RateOps: 100_000, Burst: 4},
	}, 400)

	const window = 1 * sim.Millisecond
	mid := snapshotAt(s, qs, window)
	s.Run()
	s.Shutdown()
	capped := mid[1]
	// 100k ops/s over 1ms = 100 tokens, plus the burst allowance.
	if capped < 90 || capped > 110 {
		t.Fatalf("rate-capped queue served %d in %v, want ~100-104", capped, window)
	}
	if open := mid[0]; open < 3*capped {
		t.Fatalf("uncapped queue served %d vs capped %d, want the spare bandwidth", open, capped)
	}
}

// TestTokenPrioRefillWake: when every backlogged queue is throttled,
// the dispatcher must arm a refill timer and finish the work — a
// doorbell-only dispatcher would park forever.
func TestTokenPrioRefillWake(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	d.SetArbiter(NewTokenPrio())
	// Burst 1 and one token per 10µs: after the first command the
	// queue is always throttled when the dispatcher looks.
	qs := preload(t, d, []nvme.QoS{{RateOps: 100_000, Burst: 1}}, 8)

	s.Run()
	if c := served(qs[0]); c != 8 {
		t.Fatalf("served %d of 8 through refill wakes", c)
	}
	// Seven refills at 10µs each bound the finish time from below.
	if s.Now() < 70*sim.Microsecond {
		t.Fatalf("finished at %v, want ≥70µs (rate limit not enforced)", s.Now())
	}
	s.Shutdown()
}

// TestArbiterZeroAllocHotPath asserts the QoS plane adds zero
// allocations per grant in steady state, for every arbiter. Part of
// the bench-check gate (see Makefile).
func TestArbiterZeroAllocHotPath(t *testing.T) {
	s := sim.New()
	defer s.Shutdown()
	buf := make([]byte, 512)
	for _, arb := range []Arbiter{
		NewFlatRR(),
		NewWRR(),
		NewTokenPrio(),
	} {
		qs := make([]*nvme.QueuePair, 4)
		for i := range qs {
			qs[i] = nvme.NewQueuePair(s, i+1, 0, 64)
			qs[i].QoS = nvme.QoS{Weight: i + 1, Priority: i % 2, RateOps: 1e9, Burst: 8}
			for n := 0; n < 8; n++ {
				if err := qs[i].Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(n), SLBA: 0, Sectors: 1, Buf: buf}); err != nil {
					t.Fatal(err)
				}
			}
		}
		now := sim.Time(0)
		grant := func() {
			now += 100
			idx, ok, _ := arb.Next(now, qs)
			if !ok {
				t.Fatalf("%T: no grant with backlogged queues", arb)
			}
			e, _ := qs[idx].PopSQE()
			if err := qs[idx].Submit(e); err != nil {
				t.Fatal(err)
			}
		}
		grant() // warm lazily created per-queue state
		if avg := testing.AllocsPerRun(200, grant); avg != 0 {
			t.Errorf("%T: %.1f allocs per grant in steady state, want 0", arb, avg)
		}
	}
}
