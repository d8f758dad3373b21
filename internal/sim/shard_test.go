package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// shardScenario drives one randomized workload across a sharded
// topology and returns its full execution trace. Procs are pinned
// round-robin across shards (the way a multi-device machine pins each
// device's work to its lane), and the workload stresses exactly the
// cross-shard cases the (at, seq) merge must get right: same-instant
// posts landing in different lanes, handlers that post into other
// procs' shards via cond wakeups, zero-length sleeps, and spawn
// bursts whose children inherit the spawner's shard. noShard and
// noLane select the reference schedulers; the finished simulation is
// returned for its counters.
func shardScenario(seed int64, shards int, noShard, noLane bool) ([]string, *Sim) {
	s := New()
	for len(s.shards) < shards {
		s.AddShard()
	}
	s.noShard = noShard
	s.noLane = noLane
	var log []string
	trace := func(tag string, p *Proc) {
		log = append(log, fmt.Sprintf("%d:%s", p.Now(), tag))
	}
	cond := s.NewCond()
	waiting := 0

	const procs = 8
	for i := 0; i < procs; i++ {
		i, k := i, i%shards
		rng := rand.New(rand.NewSource(seed + int64(i)))
		s.SpawnOn(k, fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 30; step++ {
				tag := fmt.Sprintf("p%d.%d", i, step)
				switch rng.Intn(6) {
				case 0: // same-instant resume through the scheduler
					p.Sleep(0)
					trace(tag+":sleep0", p)
				case 1: // clock advance
					p.Sleep(Time(1 + rng.Intn(3)))
					trace(tag+":sleep", p)
				case 2: // cross-post: a handler that posts another handler
					step := step
					s.AtOn(k, s.Now(), func() {
						log = append(log, fmt.Sprintf("%d:p%d.%d:post", s.Now(), i, step))
						s.AtOn(k, s.Now(), func() {
							log = append(log, fmt.Sprintf("%d:p%d.%d:post2", s.Now(), i, step))
						})
					})
					trace(tag+":after", p)
				case 3: // same-instant spawn burst (children inherit the shard)
					for n := 0; n < 2; n++ {
						n := n
						p.Spawn("child", func(c *Proc) {
							trace(fmt.Sprintf("p%d.%d:child%d", i, step, n), c)
							c.Sleep(0)
							trace(fmt.Sprintf("p%d.%d:child%d-end", i, step, n), c)
						})
					}
					trace(tag+":spawned", p)
				case 4: // park on the shared cond (cross-shard wakeups)
					if waiting < 3 {
						waiting++
						cond.Wait(p)
						waiting--
						trace(tag+":woke", p)
					} else {
						cond.Broadcast()
						trace(tag+":broadcast", p)
					}
				case 5: // wake one waiter, possibly on another shard
					cond.Signal()
					trace(tag+":signal", p)
				}
			}
			trace(fmt.Sprintf("p%d:done", i), p)
		})
	}
	s.Run()
	s.Shutdown()
	return log, s
}

// TestShardDispatchEquivalenceProperty pins the coupled scheduler's
// properties under the canonical (at, shard, seq) key. The noShard
// reference mode — everything routed through shard 0's stream in
// program order — is observationally identical to a true single-shard
// simulation for any nominal shard count: shard 0's per-shard seq
// stream alone IS the historical single-queue order (this is the
// argument that single-device results stayed byte-identical across
// the per-shard-seq retirement of the global counter). And the
// sharded dispatch itself is exactly reproducible: the key is a total
// order, so two runs of the same seed produce byte-identical traces.
// (Sharded vs noShard full-log identity is no longer a property of
// the coupled scheduler — simultaneous events on different shards
// order by shard index rather than global post order; the parallel
// equivalence property test in parallel_test.go pins the cross-mode
// guarantees on workloads that are honest about that.)
func TestShardDispatchEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, shards := range []int{2, 4, 8} {
			ref, _ := shardScenario(seed, shards, true, false)
			single, _ := shardScenario(seed, 1, false, false)
			if len(ref) != len(single) {
				t.Fatalf("seed %d shards %d: trace lengths %d (noShard) %d (single)",
					seed, shards, len(ref), len(single))
			}
			for i := range ref {
				if ref[i] != single[i] {
					t.Fatalf("seed %d shards %d: noShard vs single-shard diverge at step %d: %q vs %q",
						seed, shards, i, ref[i], single[i])
				}
			}
			a, _ := shardScenario(seed, shards, false, false)
			b, _ := shardScenario(seed, shards, false, false)
			if len(a) != len(b) {
				t.Fatalf("seed %d shards %d: sharded dispatch not reproducible: lengths %d vs %d",
					seed, shards, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d shards %d: sharded dispatch not reproducible at step %d: %q vs %q",
						seed, shards, i, a[i], b[i])
				}
			}
		}
	}
}

// TestShardInlineEquivalenceProperty pins the cross-shard rule of the
// in-place sleep: a sharded run equals the same run on the heap-only
// reference, which orders by the same (at, shard, seq) key and never
// sleeps in place. At each shard count the sharded side must take some
// in-place sleeps, so the comparison cannot pass vacuously.
func TestShardInlineEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		var resumes, switches uint64
		for seed := int64(1); seed <= 20; seed++ {
			got, fast := shardScenario(seed, shards, false, false)
			ref, slow := shardScenario(seed, shards, false, true)
			resumes, switches = resumes+fast.Resumed(), switches+fast.Switched()
			if slow.Switched() != slow.Resumed() {
				t.Fatalf("seed %d shards %d: reference slept in place", seed, shards)
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d shards %d: trace lengths %d vs reference %d", seed, shards, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d shards %d: diverges from the reference at step %d: %q vs %q",
						seed, shards, i, got[i], ref[i])
				}
			}
		}
		if switches >= resumes {
			t.Fatalf("shards %d: no sleep continued in place (%d switches, %d resumes)", shards, switches, resumes)
		}
		t.Logf("shards %d: %d of %d resumes continued in place", shards, resumes-switches, resumes)
	}
}

// TestShardAffinity checks the routing contract: SpawnOn pins a proc's
// lane, Proc.Spawn inherits the spawning proc's shard, Sim.Spawn always
// lands on shard 0, and a timer posted with AtOn dispatches from the
// shard it names — so a device's whole event stream stays in its lane.
func TestShardAffinity(t *testing.T) {
	s := New()
	if got := s.AddShard(); got != 1 {
		t.Fatalf("AddShard = %d, want 1", got)
	}
	if got := len(s.shards); got != 2 {
		t.Fatalf("Shards = %d, want 2", got)
	}
	childShard, simChildShard := -1, -1
	var timerClock Time
	s.SpawnOn(1, "dev", func(p *Proc) {
		if p.Shard() != 1 {
			t.Errorf("SpawnOn proc on shard %d, want 1", p.Shard())
		}
		p.Spawn("serve", func(c *Proc) {
			childShard = c.Shard()
		})
		s.Spawn("setup", func(c *Proc) {
			simChildShard = c.Shard()
		})
		s.AtOn(p.Shard(), p.Now()+5, func() {
			timerClock = s.shards[1].now
		})
		p.Sleep(10)
	})
	s.Run()
	if childShard != 1 {
		t.Errorf("Proc.Spawn child shard = %d, want 1", childShard)
	}
	if simChildShard != 0 {
		t.Errorf("Sim.Spawn child shard = %d, want 0", simChildShard)
	}
	if timerClock != 5 {
		t.Errorf("shard 1 clock at timer dispatch = %v, want 5", timerClock)
	}
	s.Shutdown()
}
