package sim

// Parallel drain of shard-confined traffic (DESIGN.md §15).
//
// When armed (ArmParallel with more than one shard), Run stops popping
// the global (at, shard, seq) minimum and instead drains every shard's
// queue until it is idle, each shard on one host worker, with no
// barriers and no lookahead. Workers claim shards off an atomic
// cursor, so a fleet with more shards than workers load-balances.
//
// The contract that makes this sound is shard confinement: while
// armed, nothing a shard executes reads or writes another shard's
// simulation state — no cross-shard post, wakeup, or shared resource.
// Under it a shard's event stream is a function of its own queue only,
// so every shard executes exactly the (at, seq) sequence the coupled
// scheduler would have given it, at any worker count and in any claim
// order. The equivalence property test pins per-shard streams of the
// drain against the coupled scheduler at workers {1,2,4,8} under the
// race detector, which is also what reports a workload that breaks
// confinement.

import (
	"sync"
	"sync/atomic"
)

// drainShard executes shard k's events until its queue is empty. It
// runs on whichever worker claimed k and touches only shard-local
// state (plus whatever the events themselves touch — the confinement
// contract above).
func (s *Sim) drainShard(k int) {
	sh := &s.shards[k]
	for !sh.idle() {
		e := sh.next()
		sh.now = e.at
		s.dispatch(sh, e)
	}
}

// drainParallel is Run's armed body. On exit the global clock is
// synced to the latest shard clock so post-run harness reads (metrics
// snapshots, utilization integrals) see final time.
func (s *Sim) drainParallel() {
	s.draining = true
	n := len(s.shards)
	var cursor atomic.Int64
	work := func() {
		for k := int(cursor.Add(1)) - 1; k < n; k = int(cursor.Add(1)) - 1 {
			s.drainShard(k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(s.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	s.draining = false
	for i := range s.shards {
		s.now = max(s.now, s.shards[i].now)
	}
}
