// Package sim provides a deterministic discrete-event simulation kernel.
//
// All latencies in the BypassD reproduction are virtual: the simulated
// machine (SSD, IOMMU, kernel, applications) advances a virtual
// nanosecond clock instead of wall-clock time, so results are exact and
// reproducible regardless of the Go runtime's scheduling behaviour.
//
// The kernel runs simulated processes (Proc) cooperatively: control
// transfers between a scheduler context and procs through a strict
// channel handshake. Events that fire at the same virtual instant run
// in the order they were posted.
//
// The dispatch hot path is built for throughput (DESIGN.md §12):
// same-instant events go through a FIFO staging lane instead of the
// heap (no sift traffic for wakeup storms), finished procs park their
// goroutines in a free pool for reuse by later Spawns (no goroutine,
// stack, or channel churn in steady state), and SpawnArg avoids the
// per-spawn closure allocation on the device's per-command path.
//
// Multi-device topologies partition the event stream into shards
// (DESIGN.md §14): each shard owns its own heap + staging lane, clock,
// and seq stream, and the scheduler pops the global minimum by the
// canonical (at, shard, seq) key — virtual-clock lockstep. A
// single-shard simulation sees only the shard-0 stream, so its
// dispatch order is the historical single-queue order exactly. For
// traffic phases that keep every shard to itself, ArmParallel makes
// Run drain the shards independently on real host cores (DESIGN.md
// §15, parallel.go), with per-shard streams identical to the coupled
// scheduler's at any worker count.
package sim

import (
	"fmt"
	"sync"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats t with an adaptive unit, e.g. "4.02µs".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

type event struct {
	at  Time
	seq uint64
	fn  func()
	// p, when non-nil, marks a proc-resume event: the scheduler calls
	// resume(p) directly instead of going through a closure. Sleeps and
	// wakeups dominate the event stream, and allocating a closure for
	// each showed up at the top of -benchmem profiles. pgen snapshots
	// p's generation at post time; a mismatch at dispatch marks a stale
	// wakeup for a proc that finished and was recycled.
	p    *Proc
	pgen uint64
}

// eventHeap is a binary min-heap ordered by (at, seq). The sift
// routines are hand-rolled rather than going through container/heap:
// the interface-based API boxes every pushed and popped event, which
// dominated simulator allocations.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// heapShrinkMin is the smallest backing array the pop-time shrink
// policy bothers reallocating; below it the memory is noise.
const heapShrinkMin = 256

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // nil out fn and p so dead closures/procs aren't pinned
	q = q[:n]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	// Shrink policy: long-running scenarios spike the heap (a burst of
	// tenants, a broadcast storm) and then idle; without a shrink the
	// oversized backing array — and the stale events beyond len() that
	// append will not overwrite until the next spike — lives for the
	// rest of the simulation.
	if cap(q) >= heapShrinkMin && n <= cap(q)/4 {
		nq := make(eventHeap, n, cap(q)/2)
		copy(nq, q)
		q = nq
	}
	*h = q
	return top
}

// heapPool recycles event-heap backing arrays across Sim instances:
// every experiment cell boots (and shuts down) its own machine, and
// regrowing the heap from scratch each time showed up in -benchmem.
var heapPool = sync.Pool{}

func newEventHeap() eventHeap {
	if v := heapPool.Get(); v != nil {
		return (*(v.(*eventHeap)))[:0]
	}
	return make(eventHeap, 0, 64)
}

func releaseEventHeap(h eventHeap) {
	h = h[:cap(h)]
	for i := range h {
		h[i] = event{} // drop closure references before pooling
	}
	h = h[:0]
	heapPool.Put(&h)
}

// shard is one partition of the event stream and its private runtime
// state: a heap for future posts, the same-instant staging lane, a
// local clock and seq stream, and the proc pool whose resumes route
// here. A single-device simulation has exactly one shard; a topology
// gives each device its own via AddShard. In a parallel drain
// (DESIGN.md §15) each shard is owned by exactly one worker, so none
// of these fields need locks.
type shard struct {
	events  eventHeap
	lane    []event
	laneOff int

	// now is the shard's local clock: the timestamp of the last event
	// dispatched on it. Under the coupled scheduler it trails the
	// global clock; in a parallel drain it runs ahead of it.
	now Time
	// seq is the shard's post counter. The canonical event key is
	// (at, shard, seq): per-shard streams with the shard index as the
	// tiebreak give multi-shard runs a total order that no longer
	// depends on a global counter — which is what lets shards execute
	// on separate host cores — while shard 0's stream alone reproduces
	// the historical single-queue order exactly.
	seq       uint64
	processed uint64

	// Proc machinery: the handshake channel and the pools of procs
	// whose resume events route through this shard. Per-shard pools
	// keep spawn/park/finish free of cross-shard traffic in parallel
	// runs; proc goroutines are shard-resident for their lifetime.
	yield      chan struct{}
	procs      []*Proc
	free       []*Proc
	nextProcID uint64
}

func newShard() shard {
	return shard{events: newEventHeap(), yield: make(chan struct{})}
}

// peek reports the shard's earliest queued (at, seq), merging the
// lane front against the heap top; ok is false when the shard is idle.
func (sh *shard) peek() (at Time, seq uint64, ok bool) {
	hasLane := sh.laneOff < len(sh.lane)
	hasHeap := len(sh.events) > 0
	if hasLane {
		le := &sh.lane[sh.laneOff]
		if !hasHeap || le.at < sh.events[0].at ||
			(le.at == sh.events[0].at && le.seq < sh.events[0].seq) {
			return le.at, le.seq, true
		}
	}
	if hasHeap {
		return sh.events[0].at, sh.events[0].seq, true
	}
	return 0, 0, false
}

// next pops the shard's earliest event by (at, seq); the shard must
// not be idle.
func (sh *shard) next() event {
	if sh.laneOff < len(sh.lane) {
		le := sh.lane[sh.laneOff]
		// Lane entries hold at == the shard clock at post time; only a
		// heap entry at the same instant with an older seq may precede
		// them.
		if len(sh.events) == 0 || le.at < sh.events[0].at ||
			(le.at == sh.events[0].at && le.seq < sh.events[0].seq) {
			sh.lane[sh.laneOff] = event{} // release the closure/proc ref
			sh.laneOff++
			if sh.laneOff == len(sh.lane) {
				sh.lane = sh.lane[:0]
				sh.laneOff = 0
			}
			return le
		}
	}
	return sh.events.pop()
}

// idle reports whether the shard has no queued events.
func (sh *shard) idle() bool {
	return sh.laneOff >= len(sh.lane) && len(sh.events) == 0
}

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
	// procIdle marks a finished proc whose goroutine is parked in the
	// spawn pool, waiting for a later Spawn to reuse it.
	procIdle
)

// Proc is a simulated thread of execution. A Proc may only call
// blocking methods (Sleep, Cond.Wait, Resource.Acquire, ...) from its
// own goroutine while it is the running proc.
//
// Proc objects (and their goroutines) are recycled: when fn returns,
// the proc parks in its shard's free pool and a later Spawn may hand
// it a new identity. ID() distinguishes logical spawns across reuse —
// two spawns never share an ID even when they share a *Proc.
type Proc struct {
	sim   *Sim
	name  string
	wake  chan struct{}
	state procState
	trace any

	// shard is the event lane the proc's resumes route to. Procs are
	// shard-resident: the shard is fixed at first allocation (from the
	// spawning context, or pinned with SpawnOn) and recycling reuses
	// the proc only for spawns on the same shard.
	shard int

	// id is unique per logical spawn; gen increments on every recycle
	// so resume events posted for a previous life are dropped.
	id  uint64
	gen uint64

	// Exactly one of fn / fnArg is set per assignment. fnArg+arg is the
	// closure-free spawn variant (SpawnArg).
	fn    func(p *Proc)
	fnArg func(p *Proc, arg any)
	arg   any
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the proc's current virtual time: its shard's clock or
// the global clock, whichever is ahead. Under the coupled scheduler
// this equals the global clock whenever the proc is running; in a
// parallel drain it is the correct local time while the global clock
// stays where the drain began.
func (p *Proc) Now() Time { return p.sim.ShardNow(p.shard) }

// Shard reports the event shard the proc's resumes route through.
func (p *Proc) Shard() int { return p.shard }

// ID returns the proc's logical spawn identity: unique per Spawn for
// the lifetime of the Sim, even when the underlying Proc object is
// recycled. Layers that intern per-thread state (the trace plane's
// tids) key on it instead of the pointer. IDs are tagged with the
// shard in the high bits, so shard 0's IDs — the only shard of a
// single-device simulation — are the historical 1, 2, 3, ...
func (p *Proc) ID() uint64 { return p.id }

// SetTraceCtx attaches an opaque per-request trace context to the
// proc (the observability plane's span, threaded through layers that
// don't pass request structs). Procs run cooperatively, so the slot
// needs no synchronization. Set nil to clear.
func (p *Proc) SetTraceCtx(v any) { p.trace = v }

// TraceCtx returns the context set by SetTraceCtx, or nil.
func (p *Proc) TraceCtx() any { return p.trace }

// killed is the panic payload used to unwind procs during Shutdown.
type killed struct{}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with New.
type Sim struct {
	now Time

	// shards partitions the event stream; shards[0] always exists and
	// is where everything routes in a single-device simulation. Each
	// shard keeps the same-instant staging FIFO in front of its heap:
	// events posted at exactly the shard's current time append in O(1)
	// and pop in O(1), skipping both heap sifts. Because every lane
	// entry carries at == the shard clock and a seq greater than
	// anything posted on the shard before it, draining the lane front
	// against the heap top by (at, seq) reproduces exact posted-order
	// FIFO semantics — the property test in batch_test.go pins this
	// against a heap-only reference scheduler. A lane empties before
	// the shard clock advances (pops take the (at, seq) minimum, so
	// the clock cannot pass a queued at == now entry), so entries
	// never go stale.
	shards []shard
	// cur is the shard of the currently dispatching context under the
	// coupled scheduler: contextless fn posts route to it, and spawned
	// procs inherit it as their affinity. It is stale in a parallel
	// drain, so the APIs that read it panic there — armed workloads
	// use the Proc-context and explicit-shard posting APIs.
	cur int
	// noLane forces every post through the heap — the one-at-a-time
	// reference dispatcher the lane equivalence test compares against.
	noLane bool
	// noShard routes every post to shard 0 regardless of affinity —
	// the single-queue reference dispatcher the shard equivalence test
	// compares against.
	noShard bool

	// workers > 0 with more than one shard arms the parallel drain
	// (parallel.go): Run drains the shards on that many host
	// goroutines.
	workers int
	// draining is true while drainParallel's workers run. It keeps the
	// stale global clock out of the post floor and turns the
	// coupled-context APIs into panics.
	draining bool

	killing bool
	running bool
}

// New returns an empty simulation with the clock at zero and a single
// event shard.
func New() *Sim {
	return &Sim{shards: []shard{newShard()}}
}

// Now returns the current virtual time of the coupled scheduler. In a
// parallel drain it stays where the drain began — procs should use
// Proc.Now (their shard clock) instead; after Run returns it is the
// maximum across shards.
func (s *Sim) Now() Time { return s.now }

// ShardNow reports virtual time as seen from the given shard: the
// shard clock or the global clock, whichever is ahead. Under the
// coupled scheduler this equals Now(); in a parallel drain it is the
// shard's local time.
func (s *Sim) ShardNow(k int) Time {
	if sn := s.shards[k].now; sn > s.now {
		return sn
	}
	return s.now
}

// ShardClock returns a closure over ShardNow(k) — the time source
// layers with a stored clock function (the filesystem's mtimes) use
// so that each device's timestamps come from its own shard.
func (s *Sim) ShardClock(k int) func() Time {
	return func() Time { return s.ShardNow(k) }
}

// Processed reports the number of events dispatched so far — the
// simulator's unit of work, used by the throughput benchmarks to
// report simulated events per wall second.
func (s *Sim) Processed() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].processed
	}
	return n
}

// AddShard grows the topology by one event shard and returns its
// index. Shard 0 exists from construction; a multi-device machine
// adds one shard per additional device so each device's command
// stream lives in its own lane, merged deterministically by the
// canonical (at, shard, seq) key.
func (s *Sim) AddShard() int {
	s.shards = append(s.shards, newShard())
	return len(s.shards) - 1
}

// Shards reports the number of event shards.
func (s *Sim) Shards() int { return len(s.shards) }

// ArmParallel arms the parallel drain for a shard-confined traffic
// phase: with more than one shard, Run drains every shard's queue to
// empty independently, on up to workers host goroutines (workers < 1
// counts as 1). The caller asserts that until DisarmParallel nothing
// a shard executes touches another shard's simulation state; under
// that contract each shard's event stream — and therefore every
// result — is the one the coupled scheduler produces, at any worker
// count.
func (s *Sim) ArmParallel(workers int) { s.workers = max(workers, 1) }

// DisarmParallel returns Run to coupled dispatch.
func (s *Sim) DisarmParallel() { s.workers = 0 }

// keyLess orders the canonical (at, shard, seq) event key.
func keyLess(a1 Time, s1 int, q1 uint64, a2 Time, s2 int, q2 uint64) bool {
	if a1 != a2 {
		return a1 < a2
	}
	if s1 != s2 {
		return s1 < s2
	}
	return q1 < q2
}

// routePost is the single enqueue path: e goes to shard k with a seq
// from k's stream. In a parallel drain the poster is always running
// on k itself (the confinement contract), so only k's worker touches
// the shard.
func (s *Sim) routePost(k int, e event) {
	if s.noShard {
		k = 0
	}
	sh := &s.shards[k]
	sh.seq++
	e.seq = sh.seq
	if e.at == sh.now && !s.noLane {
		sh.lane = append(sh.lane, e)
	} else {
		sh.events.push(e)
	}
}

// postFloor is the earliest legal timestamp for a post targeting shard
// k: the shard clock, and — outside a parallel drain, where the global
// clock is the true frontier — the global clock too. (In a drain shard
// clocks legitimately run ahead of s.now.)
func (s *Sim) postFloor(k int) Time {
	floor := s.shards[k].now
	if !s.draining && s.now > floor {
		floor = s.now
	}
	return floor
}

// coupledOnly guards the APIs that route by the coupled dispatch
// context (s.cur) or the global clock (s.now). Both are stale while a
// parallel drain runs, so a call there would land on whichever shard
// the coupled scheduler dispatched last, at the wrong time; it panics
// instead.
func (s *Sim) coupledOnly(api string) {
	if s.draining {
		panic("sim: Sim." + api + " called during a parallel drain; use the Proc method or the explicit-shard variant")
	}
}

// post schedules fn to run at time at on the current coupled dispatch
// context's shard. fn executes on the scheduler goroutine; it must not
// block.
func (s *Sim) post(at Time, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event posted in the past (%v < %v)", at, s.now))
	}
	s.routePost(s.cur, event{at: at, fn: fn})
}

// postOn posts e on shard k, refusing a timestamp below postFloor(k).
func (s *Sim) postOn(k int, e event) {
	if floor := s.postFloor(k); e.at < floor {
		panic(fmt.Sprintf("sim: event posted in the past (%v < %v)", e.at, floor))
	}
	s.routePost(k, e)
}

// postResume schedules p to be resumed at time at without allocating a
// closure, on p's shard.
func (s *Sim) postResume(at Time, p *Proc) {
	s.postOn(p.shard, event{at: at, p: p, pgen: p.gen})
}

// pending reports whether any event is queued in any shard.
func (s *Sim) pending() bool {
	for i := range s.shards {
		if !s.shards[i].idle() {
			return true
		}
	}
	return false
}

// peekAt returns the timestamp of the earliest queued event; pending
// must be true.
func (s *Sim) peekAt() Time {
	best := Time(0)
	found := false
	for i := range s.shards {
		if at, _, ok := s.shards[i].peek(); ok {
			if !found || at < best {
				best, found = at, true
			}
		}
	}
	return best
}

// next pops the globally earliest event by the canonical
// (at, shard, seq) key and records its shard as the current dispatch
// context; pending must be true. With one shard this is the historical
// single-queue pop; with several, one scan of the shard heads. Since
// multi-shard traffic runs under the parallel drain, the coupled scan
// only serves setup phases.
func (s *Sim) next() event {
	if len(s.shards) == 1 {
		s.cur = 0
		return s.shards[0].next()
	}
	best := -1
	var bAt Time
	var bSeq uint64
	for i := range s.shards {
		if at, seq, ok := s.shards[i].peek(); ok && (best < 0 || keyLess(at, i, seq, bAt, best, bSeq)) {
			best, bAt, bSeq = i, at, seq
		}
	}
	s.cur = best
	return s.shards[best].next()
}

// dispatch runs one event on sh.
func (s *Sim) dispatch(sh *shard, e event) {
	sh.processed++
	if e.p != nil {
		if e.pgen == e.p.gen {
			s.resume(e.p)
		}
		return
	}
	e.fn()
}

// At schedules fn to run at absolute virtual time at, on the current
// coupled dispatch context's shard. fn runs in scheduler context and
// must not block; spawn a proc for blocking work. It panics inside a
// parallel drain (use Proc.At or AtOn).
func (s *Sim) At(at Time, fn func()) {
	s.coupledOnly("At")
	s.post(at, fn)
}

// After schedules fn to run d nanoseconds from now, on the current
// coupled dispatch context's shard. It panics inside a parallel drain
// (use Proc.After).
func (s *Sim) After(d Time, fn func()) {
	s.coupledOnly("After")
	s.post(s.now+d, fn)
}

// AtOn schedules fn at absolute time at on an explicit shard. It is
// the shard-safe variant for layers that hold a shard index rather
// than a Proc context (a device's wakeup timer): in a parallel drain
// the caller must be executing on that same shard.
func (s *Sim) AtOn(k int, at Time, fn func()) {
	s.postOn(k, event{at: at, fn: fn})
}

// Spawn creates a proc that begins executing fn at the current virtual
// time. It may be called before Run or from inside coupled dispatch.
// The proc inherits the spawning context's shard. It panics inside a
// parallel drain; from a running proc there, use Proc.Spawn.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.coupledOnly("Spawn")
	return s.SpawnAt(s.now, name, fn)
}

// SpawnOn is Spawn with an explicit shard affinity: the proc's resume
// events route through that shard's lane. Topology boot pins each
// device's procs (and their tenants' workers) to the device's shard.
func (s *Sim) SpawnOn(shardIdx int, name string, fn func(p *Proc)) *Proc {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		panic(fmt.Sprintf("sim: SpawnOn shard %d of %d", shardIdx, len(s.shards)))
	}
	p := s.allocProcOn(shardIdx, name)
	p.fn = fn
	s.postResume(s.now, p)
	return p
}

// SpawnAt creates a proc that begins executing fn at virtual time at.
// Like Spawn, it panics inside a parallel drain.
func (s *Sim) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	s.coupledOnly("SpawnAt")
	p := s.allocProcOn(s.curShard(), name)
	p.fn = fn
	s.postResume(at, p)
	return p
}

// SpawnArg is Spawn for hot paths: fn is a shared, pre-built function
// value and arg carries the per-spawn state, so spawning allocates no
// closure. Pointer-typed args avoid the interface boxing allocation.
// Like Spawn, it panics inside a parallel drain (use Proc.SpawnArg).
func (s *Sim) SpawnArg(name string, fn func(p *Proc, arg any), arg any) *Proc {
	s.coupledOnly("SpawnArg")
	p := s.allocProcOn(s.curShard(), name)
	p.fnArg = fn
	p.arg = arg
	s.postResume(s.now, p)
	return p
}

// curShard is the spawn affinity of the coupled dispatch context.
func (s *Sim) curShard() int {
	if s.noShard {
		return 0
	}
	return s.cur
}

// Spawn creates a proc on the calling proc's shard, starting at the
// calling proc's current time. This is the spawn to use from procs in
// parallel workloads: it touches only shard-local state.
func (p *Proc) Spawn(name string, fn func(q *Proc)) *Proc {
	s := p.sim
	q := s.allocProcOn(p.shard, name)
	q.fn = fn
	s.postResume(p.Now(), q)
	return q
}

// SpawnArg is the closure-free Spawn from a proc context.
func (p *Proc) SpawnArg(name string, fn func(q *Proc, arg any), arg any) *Proc {
	s := p.sim
	q := s.allocProcOn(p.shard, name)
	q.fnArg = fn
	q.arg = arg
	s.postResume(p.Now(), q)
	return q
}

// After schedules fn d nanoseconds after the calling proc's current
// time, on the proc's shard. fn runs in scheduler context.
func (p *Proc) After(d Time, fn func()) {
	p.At(p.Now()+d, fn)
}

// At schedules fn at absolute time at on the calling proc's shard.
func (p *Proc) At(at Time, fn func()) {
	p.sim.postOn(p.shard, event{at: at, fn: fn})
}

// allocProcOn hands out a proc resident on shard k for a new logical
// spawn, recycling a finished proc's object and goroutine when one is
// free. Must run on a context that owns shard k (the coupled
// scheduler, or k's worker during a parallel drain).
func (s *Sim) allocProcOn(k int, name string) *Proc {
	sh := &s.shards[k]
	var p *Proc
	if n := len(sh.free); n > 0 {
		p = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		p.name = name
		p.state = procNew
	} else {
		p = &Proc{sim: s, name: name, wake: make(chan struct{}), state: procNew, shard: k}
		sh.procs = append(sh.procs, p)
		go s.procLoop(p)
	}
	sh.nextProcID++
	p.id = uint64(k)<<48 | sh.nextProcID
	return p
}

// procLoop is the body of every proc goroutine: serve one assignment,
// then park in the shard's free pool until the next Spawn reuses the
// proc (or Shutdown unwinds it).
func (s *Sim) procLoop(p *Proc) {
	for {
		<-p.wake
		if s.killing {
			s.finish(p)
			return
		}
		if !s.runAssignment(p) {
			return
		}
	}
}

// runAssignment executes p's current fn, reporting whether the
// goroutine should keep serving recycled assignments.
func (s *Sim) runAssignment(p *Proc) (again bool) {
	sh := &s.shards[p.shard]
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				panic(r)
			}
			s.finish(p) // unwound by Shutdown mid-run
			return
		}
		if s.killing {
			s.finish(p)
			return
		}
		// Normal completion: recycle before yielding so the scheduler
		// may hand the proc straight to the next Spawn. The goroutine
		// re-parks on p.wake, which the strict handshake guarantees it
		// reaches before any wake is sent.
		p.state = procIdle
		p.gen++
		p.fn = nil
		p.fnArg = nil
		p.arg = nil
		p.trace = nil
		sh.free = append(sh.free, p)
		again = true
		sh.yield <- struct{}{}
	}()
	p.state = procRunning
	if p.fnArg != nil {
		p.fnArg(p, p.arg)
	} else {
		p.fn(p)
	}
	return
}

// finish marks p done and returns control to the scheduler.
func (s *Sim) finish(p *Proc) {
	p.state = procDone
	s.shards[p.shard].yield <- struct{}{}
}

// resume hands control to p and blocks the dispatching context until p
// parks or finishes. It must only run on the context that owns p's
// shard.
func (s *Sim) resume(p *Proc) {
	if p.state == procDone || p.state == procIdle {
		return
	}
	p.state = procRunning
	p.wake <- struct{}{}
	<-s.shards[p.shard].yield
}

// park suspends the calling proc until it is resumed. The proc must
// already have arranged for a wakeup (an event, cond membership, ...).
func (p *Proc) park() {
	s := p.sim
	p.state = procParked
	s.shards[p.shard].yield <- struct{}{}
	<-p.wake
	if s.killing {
		panic(killed{})
	}
	p.state = procRunning
}

// Sleep advances the proc's virtual time by d. d must be >= 0.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	s := p.sim
	s.postResume(p.Now()+d, p)
	p.park()
}

// Yield lets all other events scheduled at the current instant on the
// proc's shard run before the proc continues.
func (p *Proc) Yield() { p.Sleep(0) }

// wake schedules p to be resumed now as seen from p's shard. Under the
// coupled scheduler that is the global clock, the historical "wake at
// now"; in a parallel drain it is the shard's local time. A waker on
// another shard inside a drain is out of contract: it would race p's
// shard.
func (s *Sim) wake(p *Proc) {
	s.postResume(s.ShardNow(p.shard), p)
}

// Run processes events until the event queue is empty. Procs parked on
// conditions with no pending wakeups remain parked (idle servers); call
// Shutdown to unwind them.
//
// While ArmParallel is in force on a multi-shard simulation, Run
// drains the shards independently (parallel.go); otherwise it is the
// coupled loop popping the global (at, shard, seq) minimum one event
// at a time. Arming is re-checked between dispatches, so a harness may
// arm mid-run (ArmParallel from a setup proc whose phase needed
// coupled cross-shard freedom) and the remaining events drain in
// parallel.
func (s *Sim) Run() {
	if s.running {
		panic("sim: Run is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.pending() {
		if s.ParallelArmed() {
			s.drainParallel()
			continue
		}
		s.step()
	}
}

// step dispatches the globally earliest event under the coupled
// scheduler; pending must be true.
func (s *Sim) step() {
	e := s.next()
	s.now = e.at
	sh := &s.shards[s.cur]
	sh.now = e.at
	s.dispatch(sh, e)
}

// ParallelArmed reports whether the parallel drain is armed: the next
// Run (or the remainder of the current one) drains shards
// independently. Control planes consult this to confine cross-shard
// side effects to coupled phases.
func (s *Sim) ParallelArmed() bool {
	return len(s.shards) > 1 && s.workers > 0
}

// RunUntil processes events with timestamps <= t, then sets the clock
// to t. It returns the number of events processed. RunUntil always
// dispatches coupled (no parallel drain): it is a harness-stepping API.
func (s *Sim) RunUntil(t Time) int {
	if s.running {
		panic("sim: RunUntil is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	n := 0
	for s.pending() && s.peekAt() <= t {
		s.step()
		n++
	}
	if s.now < t {
		s.now = t
	}
	return n
}

// Shutdown unwinds every parked, idle, or not-yet-started proc so
// their goroutines exit. Pending events are discarded. The simulation
// must not be used afterwards. Procs must not park inside deferred
// functions, or Shutdown will deadlock.
func (s *Sim) Shutdown() {
	s.killing = true
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.events != nil {
			releaseEventHeap(sh.events)
			sh.events = nil
		}
		for i := range sh.lane {
			sh.lane[i] = event{}
		}
		sh.lane = sh.lane[:0]
		sh.laneOff = 0
		sh.free = nil
	}
	for si := range s.shards {
		sh := &s.shards[si]
		for _, p := range sh.procs {
			if p.state == procParked || p.state == procNew || p.state == procIdle {
				p.wake <- struct{}{}
				<-s.shards[p.shard].yield
			}
		}
	}
}

// Live reports the number of procs that have not finished (idle pooled
// procs are not live: their assignment completed).
func (s *Sim) Live() int {
	n := 0
	for si := range s.shards {
		for _, p := range s.shards[si].procs {
			if p.state != procDone && p.state != procIdle {
				n++
			}
		}
	}
	return n
}
