// Device-side queue arbitration. The paper bypasses the kernel I/O
// scheduler and leans on NVMe queue arbitration for inter-process
// fairness (§3.7); this file makes that mechanism pluggable so the
// tenancy plane can ablate it: flat round-robin (the NVMe default and
// this simulator's historical behaviour), weighted round-robin over
// per-queue nvme.QoS weights (NVMe's optional WRR arbitration), and a
// strict-priority arbiter with per-queue token-bucket rate limiting
// (the shape of an SSD enforcing tenant rate caps in hardware).
//
// Arbiters only pick WHICH queue the dispatcher fetches from next;
// admission to a media channel, service timing, and completion are
// unchanged. The default FlatRR arbiter reproduces the pre-arbiter
// scan exactly — same grant order, same virtual-time behaviour, zero
// allocations per grant — so every experiment that does not opt into
// QoS is byte-identical to the flat model.
package device

import (
	"repro/internal/nvme"
	"repro/internal/sim"
)

// Arbiter selects the next submission queue the device fetches from.
// Implementations are consulted with the full queue slice each time a
// grant is possible; they must not retain the slice. The simulation
// runs one goroutine at a time, so arbiters need no locking, but they
// must be deterministic: state may depend only on the sequence of
// Next calls and the queue contents observed through them.
type Arbiter interface {
	// Next returns the index of the queue to fetch from. ok=false
	// means no queue is currently eligible. When ok=false and some
	// queue is non-empty but rate-limited, retryAt is the earliest
	// virtual time a token refill makes a queue eligible (0 when
	// there is nothing to wait for); the dispatcher re-arbitrates
	// then even without a new doorbell.
	Next(now sim.Time, queues []*nvme.QueuePair) (idx int, ok bool, retryAt sim.Time)
}

// FlatRR is the default arbiter: scan queues round-robin from a
// cursor, grant the first non-empty one, restart the next scan just
// past it. This is exactly the device's historical arbitrate() loop.
type FlatRR struct {
	cursor int
	// Each arbiter pads its state to whole cache lines: the devices'
	// arbiters are allocated side by side at boot, and every grant
	// writes the cursor from the worker draining that device's shard.
	_ [sim.CacheLine - 8]byte
}

// NewFlatRR returns the default flat round-robin arbiter.
func NewFlatRR() *FlatRR { return &FlatRR{} }

func (a *FlatRR) Next(_ sim.Time, queues []*nvme.QueuePair) (int, bool, sim.Time) {
	n := len(queues)
	for i := 0; i < n; i++ {
		idx := (a.cursor + i) % n
		if queues[idx].SQLen() > 0 {
			a.cursor = (idx + 1) % n
			return idx, true, 0
		}
	}
	return 0, false, 0
}

// WRR is weighted fair arbitration over per-queue QoS weights,
// implemented as start-time fair queueing: each queue carries a
// virtual tag that advances by 1/weight per grant, and the non-empty
// queue with the smallest prospective finish tag wins (round-robin
// tie-break). A queue with weight w therefore receives w/Σweights of
// the grants when all queues are backlogged — and, unlike credit-per-
// visit WRR, a lightly loaded high-weight queue still jumps ahead of
// backlogged weight-1 queues even when it never holds more than one
// command (the shape of this simulator's synchronous per-thread
// queues). Idle queues earn nothing: a stale tag is clamped to the
// current virtual time on reactivation, so there is no catch-up
// monopoly.
type WRR struct {
	cursor int
	vtime  float64
	st     map[*nvme.QueuePair]*wrrState
	_      [sim.CacheLine - 24]byte // see FlatRR
}

// wrrState is a queue's fair-queueing tag. The tag is clamped to the
// arbiter's virtual time only on an idle→active transition — while a
// queue stays backlogged its tag is its service credit, and losing a
// scan must not erase it (re-clamping every scan starves low-weight
// queues).
type wrrState struct {
	tag    float64
	active bool
}

// NewWRR returns a weighted fair arbiter; weights come from each
// queue's QoS class (absent/zero weight counts as 1).
func NewWRR() *WRR { return &WRR{st: make(map[*nvme.QueuePair]*wrrState)} }

func weightOf(q *nvme.QueuePair) int {
	if w := q.QoS.Weight; w > 0 {
		return w
	}
	return 1
}

func (a *WRR) Next(_ sim.Time, queues []*nvme.QueuePair) (int, bool, sim.Time) {
	n := len(queues)
	if n == 0 {
		return 0, false, 0
	}
	if a.cursor >= n {
		a.cursor = 0
	}
	best := -1
	var bestState *wrrState
	var bestFinish float64
	for i := 0; i < n; i++ {
		idx := (a.cursor + i) % n
		q := queues[idx]
		st := a.st[q]
		if st == nil {
			st = &wrrState{}
			a.st[q] = st
		}
		if q.SQLen() == 0 {
			st.active = false
			continue
		}
		if !st.active {
			if st.tag < a.vtime {
				st.tag = a.vtime
			}
			st.active = true
		}
		finish := st.tag + 1/float64(weightOf(q))
		if best == -1 || finish < bestFinish {
			best, bestState, bestFinish = idx, st, finish
		}
	}
	if best == -1 {
		return 0, false, 0
	}
	if bestState.tag > a.vtime {
		a.vtime = bestState.tag
	}
	bestState.tag = bestFinish
	a.cursor = (best + 1) % n
	return best, true, 0
}

// TokenPrio is strict-priority arbitration with per-queue token-bucket
// rate limiting: among non-empty queues whose bucket holds a token
// (queues without a RateOps cap always do), the lowest QoS.Priority
// wins, round-robin within a priority level. When every backlogged
// queue is throttled, Next reports the earliest refill instant so the
// dispatcher can sleep exactly until a token appears.
type TokenPrio struct {
	cursor  int
	buckets map[*nvme.QueuePair]*bucket
	_       [sim.CacheLine - 16]byte // see FlatRR
}

// DefaultBurst is the token-bucket depth for rate-limited queues that
// leave QoS.Burst unset.
const DefaultBurst = 16

type bucket struct {
	tokens float64
	last   sim.Time
}

// NewTokenPrio returns a strict-priority + token-bucket arbiter.
func NewTokenPrio() *TokenPrio {
	return &TokenPrio{buckets: make(map[*nvme.QueuePair]*bucket)}
}

// eligible reports whether q may be granted at now; when throttled it
// returns the virtual time its next token arrives.
func (a *TokenPrio) eligible(q *nvme.QueuePair, now sim.Time) (bool, sim.Time) {
	rate := q.QoS.RateOps
	if rate <= 0 {
		return true, 0
	}
	b := a.buckets[q]
	burst := q.QoS.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	if b == nil {
		b = &bucket{tokens: float64(burst), last: now}
		a.buckets[q] = b
	}
	if now > b.last {
		b.tokens += float64(now-b.last) * rate / 1e9
		if b.tokens > float64(burst) {
			b.tokens = float64(burst)
		}
		b.last = now
	}
	if b.tokens >= 1 {
		return true, 0
	}
	// Nanoseconds until the deficit refills, rounded up.
	need := (1 - b.tokens) * 1e9 / rate
	at := now + sim.Time(need) + 1
	return false, at
}

func (a *TokenPrio) Next(now sim.Time, queues []*nvme.QueuePair) (int, bool, sim.Time) {
	n := len(queues)
	if n == 0 {
		return 0, false, 0
	}
	if a.cursor >= n {
		a.cursor = 0
	}
	best := -1
	bestPrio := 0
	var retryAt sim.Time
	for i := 0; i < n; i++ {
		idx := (a.cursor + i) % n
		q := queues[idx]
		if q.SQLen() == 0 {
			continue
		}
		ok, at := a.eligible(q, now)
		if !ok {
			if retryAt == 0 || at < retryAt {
				retryAt = at
			}
			continue
		}
		if best == -1 || q.QoS.Priority < bestPrio {
			best, bestPrio = idx, q.QoS.Priority
		}
	}
	if best == -1 {
		return 0, false, retryAt
	}
	q := queues[best]
	if q.QoS.RateOps > 0 {
		a.buckets[q].tokens--
	}
	a.cursor = (best + 1) % n
	return best, true, 0
}

// ArbiterByName maps a config string to a fresh arbiter: "" or "rr"
// (flat round-robin, the default), "wrr", "prio". Unknown names fall
// back to flat round-robin.
func ArbiterByName(name string) Arbiter {
	switch name {
	case "wrr":
		return NewWRR()
	case "prio":
		return NewTokenPrio()
	default:
		return NewFlatRR()
	}
}
