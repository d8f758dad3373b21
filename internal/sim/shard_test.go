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
// bursts whose children inherit the spawner's shard.
func shardScenario(seed int64, shards int, noShard bool) []string {
	s := New()
	for s.Shards() < shards {
		s.AddShard()
	}
	s.noShard = noShard
	var log []string
	trace := func(tag string, p *Proc) {
		log = append(log, fmt.Sprintf("%d:%s", p.Now(), tag))
	}
	cond := s.NewCond()
	waiting := 0

	const procs = 8
	for i := 0; i < procs; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)))
		s.SpawnOn(i%shards, fmt.Sprintf("p%d", i), func(p *Proc) {
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
					s.After(0, func() {
						log = append(log, fmt.Sprintf("%d:p%d.%d:post", s.Now(), i, step))
						s.After(0, func() {
							log = append(log, fmt.Sprintf("%d:p%d.%d:post2", s.Now(), i, step))
						})
					})
					trace(tag+":after", p)
				case 3: // same-instant spawn burst (children inherit the shard)
					for k := 0; k < 2; k++ {
						k := k
						s.Spawn("child", func(c *Proc) {
							trace(fmt.Sprintf("p%d.%d:child%d", i, step, k), c)
							c.Sleep(0)
							trace(fmt.Sprintf("p%d.%d:child%d-end", i, step, k), c)
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
	return log
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
			ref := shardScenario(seed, shards, true)
			single := shardScenario(seed, 1, false)
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
			a := shardScenario(seed, shards, false)
			b := shardScenario(seed, shards, false)
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

// TestShardAffinity checks the routing contract: SpawnOn pins a proc's
// lane, Spawn inherits the spawning context's shard, and timers posted
// from a proc land on its shard — so a device's whole event stream
// stays in its lane without any caller bookkeeping.
func TestShardAffinity(t *testing.T) {
	s := New()
	if got := s.AddShard(); got != 1 {
		t.Fatalf("AddShard = %d, want 1", got)
	}
	if got := s.Shards(); got != 2 {
		t.Fatalf("Shards = %d, want 2", got)
	}
	var childShard, timerShard int
	s.SpawnOn(1, "dev", func(p *Proc) {
		if p.shard != 1 {
			t.Errorf("SpawnOn proc on shard %d, want 1", p.shard)
		}
		s.Spawn("serve", func(c *Proc) {
			childShard = c.shard
		})
		s.After(5, func() {
			timerShard = s.cur
		})
		p.Sleep(10)
	})
	s.Run()
	if childShard != 1 {
		t.Errorf("inherited child shard = %d, want 1", childShard)
	}
	if timerShard != 1 {
		t.Errorf("timer dispatched with current shard %d, want 1", timerShard)
	}
	s.Shutdown()
}

// TestShardRunUntil checks the cross-shard peek used by RunUntil: the
// earliest event must be found in whichever shard holds it.
func TestShardRunUntil(t *testing.T) {
	s := New()
	s.AddShard()
	var order []string
	s.SpawnOn(1, "late", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "late")
	})
	s.SpawnOn(0, "early", func(p *Proc) {
		p.Sleep(5)
		order = append(order, "early")
	})
	if n := s.RunUntil(10); n == 0 {
		t.Fatal("RunUntil processed nothing")
	}
	if len(order) != 1 || order[0] != "early" {
		t.Fatalf("order after RunUntil(10) = %v, want [early]", order)
	}
	s.Run()
	if len(order) != 2 || order[1] != "late" {
		t.Fatalf("order after Run = %v, want [early late]", order)
	}
	s.Shutdown()
}
