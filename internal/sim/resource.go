package sim

import "fmt"

// Resource is a counted resource with FIFO admission, modelling a
// server pool (device channels, lock, bus). Acquire blocks the calling
// proc while all units are in use, AcquireFunc queues a callback
// instead, and Release hands a unit to the oldest waiter of either
// kind.
//
// A resource is shard-resident: in a parallel drain both its holders
// and its waiters must live on the shard it was created for. Device
// channel pools and per-inode locks are naturally shard-local; create
// them with NewResourceOn. AcquireFunc checks residency on every call.
type Resource struct {
	sim      *Sim
	name     string
	shard    int // the resident shard
	capacity int
	inUse    int
	waiters  []waiter
}

// NewResourceOn returns a resource with the given unit count, resident
// on shard shardIdx — topology boot pins each device's pools to the
// device's shard.
func (s *Sim) NewResourceOn(shardIdx int, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		panic("sim: NewResourceOn shard out of range")
	}
	return &Resource{sim: s, name: name, shard: shardIdx, capacity: capacity}
}

// Acquire blocks p until a unit is available, then claims it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, waiter{p: p})
	p.park() // woken already holding the unit
}

// AcquireFunc is Acquire for callback-driven code running on shard.
// It claims a free unit and reports true at once, or queues fn behind
// the current waiters and reports false; fn is then posted on shard,
// already holding the unit, when a Release reaches it. shard must be
// the resource's resident shard: a callback queued from anywhere else
// would be woken across shards, so it panics, in any scheduling mode.
func (r *Resource) AcquireFunc(shard int, fn func()) bool {
	if shard != r.shard {
		panic(fmt.Sprintf("sim: AcquireFunc on shard %d for resource %s resident on shard %d", shard, r.name, r.shard))
	}
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	r.waiters = append(r.waiters, waiter{fn: fn, shard: shard})
	return false
}

// Release returns a unit. If procs or callbacks are waiting, ownership
// transfers directly to the oldest waiter (the unit never becomes
// free).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = waiter{}
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.sim.wakeWaiter(w) // unit passes to w; inUse unchanged
		return
	}
	r.inUse--
}
