// Package sim provides a deterministic discrete-event simulation kernel.
//
// All latencies in the BypassD reproduction are virtual: the simulated
// machine (SSD, IOMMU, kernel, applications) advances a virtual
// nanosecond clock instead of wall-clock time, so results are exact and
// reproducible regardless of the Go runtime's scheduling behaviour.
//
// The kernel runs simulated processes (Proc) cooperatively: each proc
// is a runtime coroutine (iter.Pull) that the dispatching context
// resumes and that yields back when it parks, so control passes
// without any goroutine handoff. Events that fire at the same virtual
// instant run in the order they were posted. Layers that never need a
// stack (the SSD model) skip procs altogether: they run as callbacks
// posted with AtOn and park on a Cond or Resource with WaitFunc and
// AcquireFunc, which keep them in one FIFO with parked procs.
//
// The dispatch hot path is built for throughput (DESIGN.md §12):
// same-instant events go through a FIFO staging lane instead of the
// heap (no sift traffic for wakeup storms), finished procs idle their
// coroutines in a free pool for reuse by later Spawns (no coroutine or
// stack churn in steady state), and a Sleep whose resume is certain to
// be the next event dispatched continues in place instead of switching
// coroutines twice; the event stream is the same either way, and only
// Switched tells them apart. Hot spawn paths avoid a per-spawn closure
// by binding their body once per pooled request (kernel AIO).
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
	// p.next directly instead of going through a closure. Sleeps and
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
	// resumed counts the proc resumes among the processed events,
	// including those a Sleep accounted for in place. switched counts
	// the resumes that really switched into a proc's coroutine, the
	// costliest kind of event.
	resumed  uint64
	switched uint64

	// The pools of procs whose resume events route through this shard.
	// Per-shard pools keep spawn/park/finish free of cross-shard
	// traffic in parallel runs; proc coroutines are shard-resident for
	// their lifetime, so only the shard's owner ever resumes them.
	procs      []*Proc
	free       []*Proc
	nextProcID uint64

	// The pad rounds the shard's 152 B of fields up to whole cache
	// lines, so no two shards of the array share one: a drain worker
	// writes its shard's clock, counters and queues on every event.
	_ [3*CacheLine - 152]byte
}

// CacheLine is the cache-line size of the hosts the simulator runs on.
// State that every event of a parallel drain writes, but that coupled
// setup allocates next to another shard's, is padded to whole lines
// (DESIGN.md §15): a line two workers write would bounce between their
// cores.
const CacheLine = 64

func newShard() shard {
	return shard{events: newEventHeap()}
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

// Proc is a simulated thread of execution. A Proc may only call
// blocking methods (Sleep, Cond.Wait, Resource.Acquire, ...) from its
// own fn while it is the running proc.
//
// Proc objects (and their coroutines) are recycled: when fn returns,
// the proc idles in its shard's free pool and a later Spawn may hand
// it a new identity. ID() distinguishes logical spawns across reuse —
// two spawns never share an ID even when they share a *Proc.
type Proc struct {
	sim   *Sim
	name  string
	trace any

	// next runs the proc's coroutine until it parks or finishes, yield
	// (called on the coroutine) hands control back to whoever called
	// next, and stop unwinds it (coro.go). Until the proc's first
	// dispatch creates the coroutine, next is start and the other two
	// are nil.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// shard is the event lane the proc's resumes route to. Procs are
	// shard-resident: the shard is fixed at first allocation (the
	// spawning proc's, or the one SpawnOn pins) and recycling reuses
	// the proc only for spawns on the same shard.
	shard int

	// id is unique per logical spawn; gen increments on every recycle
	// so resume events posted for a previous life are dropped.
	id  uint64
	gen uint64

	fn func(p *Proc)
}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

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
	// stale global clock out of the post floor and makes Sim.Spawn,
	// which reads that clock, panic.
	draining bool

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

// Resumed reports how many of the Processed events were proc resumes;
// the rest ran a callback. It counts resume events in the stream,
// whether or not they cost a coroutine switch (see Switched). Like
// Processed it sums per-shard counters, so a parallel drain shares no
// counter between workers.
func (s *Sim) Resumed() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].resumed
	}
	return n
}

// Switched reports how many of the Resumed events really switched into
// a proc's coroutine. The difference is the sleeps that continued in
// place because their resume was the next event (Proc.Sleep).
func (s *Sim) Switched() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].switched
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

// resumesNext reports whether a resume posted now on shard k for time
// at would be the very next event dispatched, so that Proc.Sleep may
// account for it in place. It must: come from inside Run (Shutdown
// unwinding sleeps for real); find nothing queued on k at or before
// at, since anything queued at the same instant holds an older seq;
// and, under the coupled scheduler, find the drain unarmed and no
// other shard's head ahead of (at, k) in the canonical key. In a
// parallel drain shard k's stream is all that orders its events. The
// reference modes never inline, so the equivalence tests compare the
// fast path against a scheduler that switches every time.
func (s *Sim) resumesNext(k int, at Time) bool {
	if !s.running || s.noLane || s.noShard {
		return false
	}
	if hAt, _, ok := s.shards[k].peek(); ok && hAt <= at {
		return false
	}
	if s.draining {
		return true
	}
	if s.ParallelArmed() {
		return false
	}
	for i := range s.shards {
		if i == k {
			continue
		}
		if hAt, _, ok := s.shards[i].peek(); ok && (hAt < at || hAt == at && i < k) {
			return false
		}
	}
	return true
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

// next pops the globally earliest event by the canonical
// (at, shard, seq) key and returns it with the index of its shard;
// pending must be true. With one shard this is the historical
// single-queue pop; with several, one scan of the shard heads. Since
// multi-shard traffic runs under the parallel drain, the coupled scan
// only serves setup phases.
func (s *Sim) next() (event, int) {
	if len(s.shards) == 1 {
		return s.shards[0].next(), 0
	}
	best := -1
	var bAt Time
	var bSeq uint64
	for i := range s.shards {
		if at, seq, ok := s.shards[i].peek(); ok && (best < 0 || keyLess(at, i, seq, bAt, best, bSeq)) {
			best, bAt, bSeq = i, at, seq
		}
	}
	return s.shards[best].next(), best
}

// dispatch runs one event on sh.
func (s *Sim) dispatch(sh *shard, e event) {
	sh.processed++
	if e.p != nil {
		if e.pgen == e.p.gen {
			sh.resumed++
			sh.switched++
			e.p.next()
		}
		return
	}
	e.fn()
}

// AtOn schedules fn at absolute time at on shard k. fn runs in
// scheduler context and must not block; spawn a proc for blocking
// work. It is the one way to post a callback (a device's wakeup
// timer): in a parallel drain the caller must be executing on shard k.
func (s *Sim) AtOn(k int, at Time, fn func()) {
	s.postOn(k, event{at: at, fn: fn})
}

// Spawn creates a proc on shard 0 that begins executing fn at the
// current virtual time. It may be called before Run or from inside
// coupled dispatch. It reads the global clock, which is stale in a
// parallel drain, so it panics there; from a running proc, use
// Proc.Spawn.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.draining {
		panic("sim: Sim.Spawn called during a parallel drain; use Proc.Spawn")
	}
	return s.SpawnOn(0, name, fn)
}

// SpawnOn is Spawn with an explicit shard affinity: the proc's resume
// events route through that shard's lane. Topology boot pins each
// device's tenants' workers to the device's shard.
func (s *Sim) SpawnOn(shardIdx int, name string, fn func(p *Proc)) *Proc {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		panic(fmt.Sprintf("sim: SpawnOn shard %d of %d", shardIdx, len(s.shards)))
	}
	p := s.allocProcOn(shardIdx, name)
	p.fn = fn
	s.postResume(s.now, p)
	return p
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

// allocProcOn hands out a proc resident on shard k for a new logical
// spawn, recycling a finished proc's object and coroutine when one is
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
	} else {
		// The coroutine is born at the proc's first dispatch, on the
		// context that owns shard k: coupled setup spawns procs for
		// every shard in turn, and the runtime state each switch
		// writes would interleave across shards in memory.
		p = &Proc{sim: s, name: name, shard: k}
		p.next = p.start
		sh.procs = append(sh.procs, p)
	}
	sh.nextProcID++
	p.id = uint64(k)<<48 | sh.nextProcID
	return p
}

// start is p.next until the proc's first dispatch: it creates the
// coroutine on the dispatching context and runs it. (A nil check in
// dispatch instead cost the warm 4 KiB read ~2% of its host time.)
func (p *Proc) start() (struct{}, bool) {
	p.sim.newCoroutine(p)
	return p.next()
}

// runAssignment executes p's current fn on p's coroutine, reporting
// whether the coroutine should keep serving recycled assignments: false
// once Shutdown has unwound it. Any other panic propagates out of
// p.next to the dispatching context.
func (s *Sim) runAssignment(p *Proc) bool {
	defer func() {
		if r := recover(); r != nil && r != (killed{}) {
			panic(r)
		}
	}()
	p.fn(p)
	// Normal completion: recycle before yielding so the scheduler may
	// hand the proc straight to the next Spawn.
	p.gen++
	p.fn = nil
	p.trace = nil
	sh := &s.shards[p.shard]
	sh.free = append(sh.free, p)
	return true
}

// park suspends the calling proc until it is resumed. The proc must
// already have arranged for a wakeup (an event, cond membership, ...).
// After Shutdown's stop, yield reports false and the proc unwinds.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Sleep advances the proc's virtual time by d. d must be >= 0.
//
// When the resume it would post is certain to be the next event
// dispatched (resumesNext), Sleep skips the coroutine switch: it
// accounts for the event in place, exactly as posting and dispatching
// it would have (the shard's seq, the clocks, Processed and Resumed),
// and returns. Only Switched tells the two apart.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	s := p.sim
	at := p.Now() + d
	if s.resumesNext(p.shard, at) {
		sh := &s.shards[p.shard]
		sh.seq++
		sh.now = at
		if !s.draining {
			s.now = at
		}
		sh.processed++
		sh.resumed++
		return
	}
	s.postResume(at, p)
	p.park()
}

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
		e, k := s.next()
		s.now = e.at
		sh := &s.shards[k]
		sh.now = e.at
		s.dispatch(sh, e)
	}
}

// ParallelArmed reports whether the parallel drain is armed: the next
// Run (or the remainder of the current one) drains shards
// independently. Control planes consult this to confine cross-shard
// side effects to coupled phases.
func (s *Sim) ParallelArmed() bool {
	return len(s.shards) > 1 && s.workers > 0
}

// Shutdown unwinds every parked, idle, or not-yet-started proc, so no
// coroutine outlives the simulation, then discards pending events
// (including any that unwinding procs posted from deferred functions).
// The simulation must not be used afterwards.
func (s *Sim) Shutdown() {
	for si := range s.shards {
		for _, p := range s.shards[si].procs {
			if p.stop != nil { // nil: spawned, never dispatched
				p.stop()
			}
		}
	}
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
}
