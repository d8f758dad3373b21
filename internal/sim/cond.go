package sim

// Cond is a virtual-time condition variable. Waiters park until
// another proc (or an event) signals or broadcasts. As with
// sync.Cond, callers should re-check their predicate in a loop around
// Wait because wakeups are not tied to predicate changes.
//
// A waiter is either a parked proc (Wait) or a callback (WaitFunc);
// both kinds share one FIFO, and a woken callback is posted exactly
// where a woken proc's resume would be.
type Cond struct {
	sim     *Sim
	waiters []waiter
	// The pad gives the Cond a cache line of its own: a shard's procs
	// wait on and signal it all through a drain, and coupled setup
	// allocates the conds of different shards side by side.
	_ [CacheLine - 32]byte
}

// waiter is one party parked on a Cond or Resource: a proc, or a
// callback to post on shard when woken.
type waiter struct {
	p     *Proc
	fn    func()
	shard int
}

// wakeWaiter schedules w to run now as seen from its shard: a proc's
// resume (wake), or a callback posted at the same instant and in the
// same seq position the resume would take.
func (s *Sim) wakeWaiter(w waiter) {
	if w.p != nil {
		s.wake(w.p)
		return
	}
	s.postOn(w.shard, event{at: s.ShardNow(w.shard), fn: w.fn})
}

// NewCond returns a condition variable bound to s.
func (s *Sim) NewCond() *Cond { return &Cond{sim: s} }

// Wait parks the calling proc until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, waiter{p: p})
	p.park()
}

// WaitFunc is Wait for callback-driven code: fn is queued behind the
// current waiters and posted on shard when a Signal or Broadcast
// reaches it. Like a woken proc, fn should re-check its predicate.
func (c *Cond) WaitFunc(shard int, fn func()) {
	c.waiters = append(c.waiters, waiter{fn: fn, shard: shard})
}

// Signal wakes the earliest waiter, if any. It may be called from any
// proc or from scheduler context; inside a parallel drain, only from
// the waiters' shard: a proc waiter resumes, and a callback waiter is
// posted, on its own shard at that shard's clock, so a signaler on
// another shard would race it. Nothing checks that here (the race
// detector and the equivalence gate catch violations); Resource, which
// knows its resident shard, refuses a foreign AcquireFunc outright.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[len(c.waiters)-1] = waiter{}
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.sim.wakeWaiter(w)
}

// Broadcast wakes every waiter in FIFO order.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		c.waiters[i] = waiter{}
		c.sim.wakeWaiter(w)
	}
	c.waiters = c.waiters[:0]
}
