package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// confinedScenario drives one randomized, shard-confined workload —
// procs pinned per shard, shard-local timers, spawns and conds — and
// returns the per-shard execution traces. workers 0 runs it on the
// coupled scheduler (the reference); workers > 0 arms the parallel
// drain. Traces are collected per shard (each appended only by that
// shard's events), so collection itself is race-free at any worker
// count and the returned value is exactly the object the determinism
// contract speaks about: each shard's ordered event stream.
func confinedScenario(seed int64, shards, workers int) [][]string {
	const window = 20
	s := New()
	for len(s.shards) < shards {
		s.AddShard()
	}
	if workers > 0 {
		s.ArmParallel(workers)
	}

	logs := make([][]string, shards)
	tr := func(k int, at Time, tag string) {
		logs[k] = append(logs[k], fmt.Sprintf("%d:%s", at, tag))
	}

	// One cond per shard: waiters and signalers stay on the shard, the
	// contract Cond documents for parallel runs.
	conds := make([]*Cond, shards)
	waiting := make([]int, shards)
	for k := range conds {
		conds[k] = s.NewCond()
	}

	const procs = 12
	for i := 0; i < procs; i++ {
		i := i
		k := i % shards
		rng := rand.New(rand.NewSource(seed*1777 + int64(i)))
		s.SpawnOn(k, fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				tag := fmt.Sprintf("p%d.%d", i, step)
				switch rng.Intn(6) {
				case 0:
					p.Sleep(0)
					tr(k, p.Now(), tag+":yield")
				case 1:
					p.Sleep(Time(1 + rng.Intn(window)))
					tr(k, p.Now(), tag+":sleep")
				case 2: // same-shard timer
					at := p.Now()
					s.AtOn(k, at+Time(rng.Intn(window)), func() {
						tr(k, p.sim.ShardNow(k), tag+":after")
					})
					tr(k, at, tag+":armed")
				case 3: // same-shard spawn burst
					for c := 0; c < 2; c++ {
						c := c
						p.Spawn("child", func(q *Proc) {
							tr(k, q.Now(), fmt.Sprintf("%s:child%d", tag, c))
							q.Sleep(Time(1 + rng.Intn(3)))
							tr(k, q.Now(), fmt.Sprintf("%s:child%d-end", tag, c))
						})
					}
					tr(k, p.Now(), tag+":spawned")
				case 4: // shard-local cond traffic
					if waiting[k] == 0 && rng.Intn(2) == 0 {
						waiting[k]++
						conds[k].Wait(p)
						waiting[k]--
						tr(k, p.Now(), tag+":woke")
					} else {
						conds[k].Broadcast()
						tr(k, p.Now(), tag+":broadcast")
					}
				case 5:
					p.Sleep(0)
					tr(k, p.Now(), tag+":sleep0")
				}
			}
			tr(k, p.Now(), fmt.Sprintf("p%d:done", i))
		})
	}
	s.Run()
	s.Shutdown()
	return logs
}

// TestParallelEquivalenceProperty is the tentpole determinism gate:
// for 20 random shard-confined workloads, the parallel drain produces
// exactly the per-shard event streams of the coupled scheduler, at
// every worker count. Workers only change which host goroutine drains
// a shard — never what runs, when, or in which order within a shard.
// Run with -race to additionally verify the drain is data-race-free
// at W > 1.
func TestParallelEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, shards := range []int{2, 4} {
			ref := confinedScenario(seed, shards, 0)
			for _, workers := range []int{1, 2, 4, 8} {
				got := confinedScenario(seed, shards, workers)
				for k := range ref {
					if len(got[k]) != len(ref[k]) {
						t.Fatalf("seed %d shards %d workers %d: shard %d stream length %d, want %d",
							seed, shards, workers, k, len(got[k]), len(ref[k]))
					}
					for j := range ref[k] {
						if got[k][j] != ref[k][j] {
							t.Fatalf("seed %d shards %d workers %d: shard %d diverges at step %d: %q vs coupled %q",
								seed, shards, workers, k, j, got[k][j], ref[k][j])
						}
					}
				}
			}
		}
	}
}

// TestParallelDrainMatchesRerun pins that the armed drain is also
// reproducible against itself across independent simulations (fresh
// heaps, fresh proc IDs, fresh pools).
func TestParallelDrainMatchesRerun(t *testing.T) {
	a := confinedScenario(42, 4, 1)
	b := confinedScenario(42, 4, 1)
	for k := range a {
		if strings.Join(a[k], "\n") != strings.Join(b[k], "\n") {
			t.Fatalf("shard %d: single-worker drain not reproducible", k)
		}
	}
}

// TestParallelDrainCoupledAPIsPanic checks that Sim.Spawn, the one API
// that reads the global clock (stale while workers drain), panics when
// a proc calls it inside an armed run instead of spawning at the wrong
// time.
func TestParallelDrainCoupledAPIsPanic(t *testing.T) {
	s := New()
	s.AddShard()
	s.ArmParallel(2)
	var got any
	s.SpawnOn(1, "caller", func(p *Proc) {
		p.Sleep(10) // run the shard clock ahead of the global one
		defer func() { got = recover() }()
		s.Spawn("x", func(*Proc) {})
	})
	s.Run()
	s.Shutdown()
	if got == nil {
		t.Fatal("Sim.Spawn inside a parallel drain did not panic")
	}
	if msg := fmt.Sprint(got); !strings.Contains(msg, "Sim.Spawn called during a parallel drain") {
		t.Fatalf("Sim.Spawn: unexpected panic %q", msg)
	}
}
