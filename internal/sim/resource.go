package sim

// Resource is a counted resource with FIFO admission, modelling a
// server pool (device channels, lock, bus). Acquire blocks the calling
// proc while all units are in use; Release hands a unit to the oldest
// waiter.
//
// A resource is shard-resident: in a parallel drain both its holders
// and its waiters must live on the shard it was created for. Device
// channel pools and per-inode locks are naturally shard-local; create
// them with NewResourceOn.
type Resource struct {
	sim      *Sim
	name     string
	shard    int // the resident shard
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource returns a resource with the given unit count, resident
// on the current coupled dispatch context's shard. It panics inside a
// parallel drain, where that context is stale; use NewResourceOn.
func (s *Sim) NewResource(name string, capacity int) *Resource {
	s.coupledOnly("NewResource")
	return s.NewResourceOn(s.curShard(), name, capacity)
}

// NewResourceOn is NewResource with an explicit shard residence —
// topology boot pins each device's pools to the device's shard.
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
	r.waiters = append(r.waiters, p)
	p.park() // woken already holding the unit
}

// TryAcquire claims a unit if one is free, reporting whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	return false
}

// Release returns a unit. If procs are waiting, ownership transfers
// directly to the oldest waiter (the unit never becomes free).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		p := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.sim.wake(p) // unit passes to p; inUse unchanged
		return
	}
	r.inUse--
}

// Use acquires a unit, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Capacity reports the unit count.
func (r *Resource) Capacity() int { return r.capacity }
