package workload

import (
	"math/rand"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Request is one queued arrival: the instant Generate stamps on it,
// and what the plane's arrive hook chose for its serve hook.
type Request struct {
	At    sim.Time // arrival instant
	Key   uint64   // what to serve: a byte offset (tenants), a store key (frontend)
	User  uint64   // the user's index in its device's partition (frontend)
	Write bool
}

// Tally is what the engine records of one queue's traffic.
type Tally struct {
	Start sim.Time // first arrival
	End   sim.Time // last completion

	// Sojourn is the arrival-to-completion latency of served requests:
	// on an open loop it includes the time queued behind the backlog,
	// which a closed loop cannot see.
	Sojourn *stats.Histogram

	PeakBacklog int   // largest queued backlog observed
	Bursts      int64 // injected arrival spikes (faults.SiteTenantBurst)
}

// class is one FIFO class. A drained class reuses its storage, so its
// capacity follows the backlog, not the arrival count. The pad gives
// each class a cache line of its own.
type class struct {
	q    []Request
	head int
	_    [sim.CacheLine - 32]byte
}

// Queue is the open-loop hand-off between one generator proc, running
// Generate, and the worker procs running Serve. Arrivals land in FIFO
// classes that workers drain round-robin, so one busy class cannot
// monopolize the pool. Only procs on one shard may touch a queue, so
// plain fields suffice. Its fields fill one cache line exactly, apart
// from the other queues that setup allocates next to it.
type Queue struct {
	classes []class
	backlog int
	rr      int // next class to scan
	done    bool
	abort   bool
	more    *sim.Cond
	tally   *Tally
}

// NewQueue returns a queue of classes FIFO classes on s that records
// its traffic into t, starting t's Sojourn histogram.
func NewQueue(s *sim.Sim, classes int, t *Tally) *Queue {
	t.Sojourn = stats.NewHistogram()
	return &Queue{classes: make([]class, classes), more: s.NewCond(), tally: t}
}

// Backlog is the number of queued requests.
func (q *Queue) Backlog() int { return q.backlog }

// Abort stops the generator and every worker at their next check.
func (q *Queue) Abort() {
	q.abort = true
	q.more.Broadcast()
}

// Generate is the one arrival loop. It runs on the generator proc g
// and offers n arrivals spaced by s, whose gaps it draws from rng. A
// faults.SiteTenantBurst hit lands this arrival and the next
// faults.BurstArrivals-1 at one instant. For each arrival,
// arrive(i, now) builds the request and returns its class, or -1 to
// shed it: a shed arrival is neither queued nor signalled. Generation
// stops early once the queue is aborted.
func (q *Queue) Generate(g *sim.Proc, rng *rand.Rand, s *Stream, n int, inj *faults.Injector, arrive func(i int, now sim.Time) (Request, int)) {
	t := q.tally
	burst := 0
	for i := 0; i < n && !q.abort; i++ {
		if burst > 0 {
			burst--
		} else {
			if gap := s.Next(rng, g.Now()); gap > 0 {
				g.Sleep(gap)
			}
			if inj.Fire(faults.SiteTenantBurst) {
				burst = faults.BurstArrivals - 1
				t.Bursts++
			}
		}
		now := g.Now()
		if t.Start == 0 {
			t.Start = now
		}
		r, c := arrive(i, now)
		if c < 0 {
			continue
		}
		r.At = now
		cl := &q.classes[c]
		cl.q = append(cl.q, r)
		q.backlog++
		if q.backlog > t.PeakBacklog {
			t.PeakBacklog = q.backlog
		}
		q.more.Signal()
	}
	q.done = true
	q.more.Broadcast()
}

// Serve is the one worker loop. It runs on the worker proc w until the
// generator is done and the queue drained, or the queue is aborted.
// serve handles one request and reports whether it was served; false
// means dropped, or failed after aborting the queue. A served
// request's sojourn goes into the tally before count(r, sojourn) does
// the plane's own accounting. idle, when not nil, runs each time the
// worker finds the queue empty.
func (q *Queue) Serve(w *sim.Proc, serve func(r Request) bool, count func(r Request, sojourn sim.Time), idle func()) {
	t := q.tally
	for !q.abort {
		if q.backlog > 0 {
			r := q.pop()
			if !serve(r) {
				continue
			}
			now := w.Now()
			soj := now - r.At
			t.Sojourn.Add(soj)
			count(r, soj)
			if now > t.End {
				t.End = now
			}
			continue
		}
		if idle != nil {
			idle()
		}
		if q.done {
			return
		}
		q.more.Wait(w)
	}
}

// pop takes the next request round-robin across the classes. Callers
// check the backlog first. The cursor wraps instead of taking a
// modulus, which would cost a division on every step of the scan.
func (q *Queue) pop() Request {
	for {
		c := &q.classes[q.rr]
		if q.rr++; q.rr == len(q.classes) {
			q.rr = 0
		}
		if c.head < len(c.q) {
			r := c.q[c.head]
			c.head++
			if c.head == len(c.q) {
				c.q = c.q[:0]
				c.head = 0
			}
			q.backlog--
			return r
		}
	}
}
