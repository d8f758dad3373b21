// Package nvme defines the NVMe protocol surface shared by the
// simulated SSD, the kernel driver, and BypassD's UserLib: submission
// and completion queue entries, status codes, and in-memory queue
// pairs with doorbell semantics.
//
// BypassD extends the command format with Virtual Block Addresses
// (VBAs): a submission entry may carry a process-virtual address in
// place of a Logical Block Address, in which case the device asks the
// IOMMU to translate it (paper §3.5). The PASID needed for that walk
// is a property of the queue pair, linked at queue-creation time by
// the kernel driver (paper §3.3).
package nvme

import (
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Opcode identifies an NVMe I/O command.
type Opcode uint8

// Supported commands.
const (
	OpRead Opcode = iota
	OpWrite
	OpFlush
	OpWriteZeroes
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpWriteZeroes:
		return "write-zeroes"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is an NVMe completion status code.
type Status uint16

// Completion statuses. TranslationFault and AccessDenied are the
// BypassD additions: the IOMMU could not translate the VBA (no FTE —
// access revoked or never granted) or the permission/DevID check
// failed. The SSD returns the error to the submitter without touching
// media (paper §5.3).
const (
	StatusSuccess Status = iota
	StatusLBAOutOfRange
	StatusInvalidField
	StatusTranslationFault
	StatusAccessDenied
	StatusInternalError
	// StatusMediaError and StatusCommandTimeout model transient device
	// failures (injected by the fault plane); submitters may retry.
	StatusMediaError
	StatusCommandTimeout
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusLBAOutOfRange:
		return "lba-out-of-range"
	case StatusInvalidField:
		return "invalid-field"
	case StatusTranslationFault:
		return "translation-fault"
	case StatusAccessDenied:
		return "access-denied"
	case StatusInternalError:
		return "internal-error"
	case StatusMediaError:
		return "media-error"
	case StatusCommandTimeout:
		return "command-timeout"
	default:
		return fmt.Sprintf("status(%d)", uint16(s))
	}
}

// OK reports whether the status is a success.
func (s Status) OK() bool { return s == StatusSuccess }

// Transient reports whether the status models a transient device
// condition that a submitter may reasonably retry.
func (s Status) Transient() bool {
	return s == StatusMediaError || s == StatusCommandTimeout
}

// SQE is a submission queue entry.
type SQE struct {
	Opcode  Opcode
	CID     uint16 // command identifier, echoed in the CQE
	Sectors int64  // transfer length in 512 B sectors

	// Exactly one addressing mode is used:
	// UseVBA=false: SLBA is a device sector number.
	// UseVBA=true: VBA is a process-virtual byte address that the
	// device must have translated by the IOMMU before media access.
	UseVBA bool
	SLBA   int64
	VBA    uint64

	// Buf is the DMA target/source. Its length must be
	// Sectors*SectorSize. In hardware this would be a PRP/SGL; the
	// simulation passes the pinned buffer directly.
	Buf []byte

	// Span is the observability plane's per-request context; the
	// device marks its service window on it. Nil when tracing is off
	// (every span method is a nil-safe no-op).
	Span *trace.IOSpan
}

// CQE is a completion queue entry.
type CQE struct {
	CID    uint16
	Status Status
}

// QoS is the service class a queue pair carries through device
// arbitration. The paper delegates inter-process fairness to NVMe
// queue arbitration once the kernel I/O scheduler is bypassed (§3.7);
// QoS is the per-queue state that arbitration consults. The kernel
// driver stamps it at queue-registration time from the owning
// process, so every UserLib per-thread queue inherits its tenant's
// class. The zero value is the default class: weight 1, priority 0,
// no rate limit — under the default flat round-robin arbiter it is
// never consulted at all.
type QoS struct {
	// Weight is the queue's weighted-fair share; values <= 0 mean 1.
	Weight int `json:"weight,omitempty"`
	// Priority orders strict-priority arbitration; lower values are
	// served first. Ignored by the round-robin arbiters.
	Priority int `json:"priority,omitempty"`
	// RateOps, when > 0, caps the rate at which commands are fetched
	// from this queue (commands per second of virtual time) via a
	// token bucket in the arbiter.
	RateOps float64 `json:"rate_ops,omitempty"`
	// Burst is the token-bucket depth; values <= 0 mean the arbiter's
	// default.
	Burst int `json:"burst,omitempty"`
}

// QueuePair is an in-memory NVMe submission/completion queue pair.
// The kernel driver creates queue pairs and may map them into a
// process (the BypassD interface); each pair carries the PASID of the
// owning process so the IOMMU can locate its page tables, and the QoS
// class of the owning process so the device arbiter knows its share.
type QueuePair struct {
	ID    int
	PASID uint32
	QoS   QoS

	sq       []SQE
	sqHead   int
	sqTail   int
	sqCount  int
	cq       []CQE
	cqHead   int
	cqTail   int
	cqCount  int
	Doorbell *sim.Cond // device waits here for submissions
	CQReady  *sim.Cond // submitters wait here for completions

	cid uint16 // last command ID Exec stamped
}

// rings is a recycled SQ/CQ array pair. Machines boot (and discard)
// queue pairs constantly under the experiment sweeps, and allocating —
// and zeroing — a fresh 4096-entry kernel ring per machine was a top
// boot cost. Rings recycle dirty: ring protocol only ever reads
// entries after writing them (head/tail/count live on the QueuePair
// and start fresh), so stale entries are unreachable.
type rings struct {
	sq []SQE
	cq []CQE
}

// ringPools holds one free list per ring depth (depth -> *sync.Pool
// of *rings); experiments run machines in parallel, hence sync.
var ringPools sync.Map

func getRings(depth int) *rings {
	pv, _ := ringPools.Load(depth)
	if pv == nil {
		pv, _ = ringPools.LoadOrStore(depth, &sync.Pool{})
	}
	if v := pv.(*sync.Pool).Get(); v != nil {
		return v.(*rings)
	}
	return &rings{sq: make([]SQE, depth), cq: make([]CQE, depth)}
}

// ReleaseRings returns the pair's ring arrays to the shared pool. Only
// teardown paths that own the whole machine (core.System.Close) may
// call it: any later use of the pair would alias a recycled ring.
func (q *QueuePair) ReleaseRings() {
	if q.sq == nil {
		return
	}
	pv, _ := ringPools.Load(len(q.sq))
	if pv != nil {
		pv.(*sync.Pool).Put(&rings{sq: q.sq, cq: q.cq})
	}
	q.sq, q.cq = nil, nil
}

// NewQueuePair returns a queue pair with the given ring depth.
func NewQueuePair(s *sim.Sim, id int, pasid uint32, depth int) *QueuePair {
	if depth <= 0 {
		panic("nvme: queue depth must be positive")
	}
	r := getRings(depth)
	return &QueuePair{
		ID:       id,
		PASID:    pasid,
		sq:       r.sq,
		cq:       r.cq,
		Doorbell: s.NewCond(),
		CQReady:  s.NewCond(),
	}
}

// SQLen reports the number of submitted, unconsumed commands.
func (q *QueuePair) SQLen() int { return q.sqCount }

// Submit places e on the submission queue and rings the doorbell.
// It reports an error if the ring is full; callers enforce queue
// depth and must not spin on a full ring.
func (q *QueuePair) Submit(e SQE) error {
	if q.sqCount == len(q.sq) {
		return fmt.Errorf("nvme: queue %d submission ring full", q.ID)
	}
	if e.Opcode != OpFlush && e.Opcode != OpWriteZeroes && int64(len(e.Buf)) != e.Sectors*SectorSize {
		return fmt.Errorf("nvme: buffer length %d != %d sectors", len(e.Buf), e.Sectors)
	}
	q.sq[q.sqTail] = e
	q.sqTail = (q.sqTail + 1) % len(q.sq)
	q.sqCount++
	q.Doorbell.Signal()
	return nil
}

// Exec runs one command the way a polled userspace driver does: it
// stamps the pair's next command ID, submits, busy-polls the
// completion queue on cpu, and completes the command's trace span.
// Callers keep one command outstanding on the pair, so the completion
// reaped is the command's own. A submit error returns without waiting.
func (q *QueuePair) Exec(p *sim.Proc, cpu *sim.CPUSet, e SQE) (CQE, error) {
	q.cid++
	e.CID = q.cid
	if err := q.Submit(e); err != nil {
		return CQE{}, err
	}
	for {
		if c, ok := q.PopCQE(); ok {
			e.Span.Complete(p.Now())
			return c, nil
		}
		cpu.BusyWait(p, q.CQReady)
	}
}

// PopSQE removes the oldest submission, reporting false if empty.
// Called by the device during arbitration.
func (q *QueuePair) PopSQE() (SQE, bool) {
	if q.sqCount == 0 {
		return SQE{}, false
	}
	e := q.sq[q.sqHead]
	q.sqHead = (q.sqHead + 1) % len(q.sq)
	q.sqCount--
	return e, true
}

// PostCQE places a completion on the completion queue and signals
// pollers. The CQ cannot overflow because completions never exceed
// outstanding submissions on a same-depth ring.
func (q *QueuePair) PostCQE(c CQE) {
	if q.cqCount == len(q.cq) {
		panic("nvme: completion ring overflow")
	}
	q.cq[q.cqTail] = c
	q.cqTail = (q.cqTail + 1) % len(q.cq)
	q.cqCount++
	q.CQReady.Broadcast()
}

// PopCQE removes the oldest completion, reporting false if empty.
func (q *QueuePair) PopCQE() (CQE, bool) {
	if q.cqCount == 0 {
		return CQE{}, false
	}
	c := q.cq[q.cqHead]
	q.cqHead = (q.cqHead + 1) % len(q.cq)
	q.cqCount--
	return c, true
}

// SectorSize re-exports the device sector size for convenience.
const SectorSize = 512
