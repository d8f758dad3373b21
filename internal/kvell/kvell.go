// Package kvell reimplements KVell (Lepers et al., SOSP '19) as used
// in the paper's Fig. 16: a share-nothing-in-spirit persistent KV
// store that keeps a full index in memory, stores items unsorted in
// fixed-size on-disk slots, performs no disk-order maintenance, and
// batches I/O at a configurable queue depth through libaio. High
// queue depths buy throughput at the cost of per-request latency; the
// paper adds a synchronous BypassD mode that restores low latency.
package kvell

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/userlib"
)

// Geometry: 16 B keys + 1 KiB values (paper §6.5), padded to a
// sector multiple so slots are always sector aligned.
const (
	KeySize  = 16
	ValSize  = 1024
	SlotSize = 1536 // 3 sectors: key + value + header, padded
)

// Store is the shared store state: in-memory index over on-disk
// slots in one slab file.
type Store struct {
	Path      string
	FileBytes int64

	index map[uint64]uint64 // key -> slot
	cpu   *sim.CPUSet
}

// indexCost is the in-memory index probe cost per operation.
const indexCost = 200 * sim.Nanosecond

// ValueOf is the deterministic build-time payload for key k.
func ValueOf(k uint64) [ValSize]byte {
	var v [ValSize]byte
	binary.LittleEndian.PutUint64(v[:], k^0xabcdef)
	binary.LittleEndian.PutUint64(v[ValSize-8:], k)
	return v
}

// encodeSlot writes key and val into buf, one SlotSize slot.
func encodeSlot(buf []byte, key uint64, val *[ValSize]byte) {
	binary.LittleEndian.PutUint64(buf, key)
	copy(buf[KeySize:], val[:])
}

// Build creates and populates the slab file with items 0..Items-1.
func Build(p *sim.Proc, sys *core.System, cfg Config) (*Store, error) {
	return BuildOn(p, sys, 0, cfg)
}

// BuildOn is Build on topology node devIdx, for multi-SSD callers
// that keep one slab per device; node 0 is exactly the historical
// Build.
func BuildOn(p *sim.Proc, sys *core.System, devIdx int, cfg Config) (*Store, error) {
	if cfg.Items == 0 {
		return nil, fmt.Errorf("kvell: empty store")
	}
	slots := cfg.Items + cfg.Items/2 + 1024 // half again as slack
	st := &Store{
		Path:      cfg.Path,
		FileBytes: int64(slots) * SlotSize,
		index:     make(map[uint64]uint64, cfg.Items),
		cpu:       sys.M.CPU,
	}
	pr := sys.NewProcessOn(ext4.Root, devIdx)
	fd, err := pr.Create(p, cfg.Path, 0o666)
	if err != nil {
		return nil, err
	}
	if err := pr.Fallocate(p, fd, st.FileBytes); err != nil {
		return nil, err
	}
	// Populate initial items in 1 MiB batches.
	const slotsPerBatch = (1 << 20) / SlotSize
	batch := make([]byte, slotsPerBatch*SlotSize)
	for start := uint64(0); start < cfg.Items; start += slotsPerBatch {
		n := uint64(slotsPerBatch)
		if start+n > cfg.Items {
			n = cfg.Items - start
		}
		for i := uint64(0); i < n; i++ {
			v := ValueOf(start + i)
			encodeSlot(batch[i*SlotSize:], start+i, &v)
		}
		if _, err := pr.Pwrite(p, fd, batch[:n*SlotSize], int64(start)*SlotSize); err != nil {
			return nil, err
		}
	}
	for k := uint64(0); k < cfg.Items; k++ {
		st.index[k] = k
	}
	if err := pr.Fsync(p, fd); err != nil {
		return nil, err
	}
	if err := pr.Close(p, fd); err != nil {
		return nil, err
	}
	return st, nil
}

// Config for building a store.
type Config struct {
	Items uint64
	Path  string
}

// Request is one client operation.
type Request struct {
	Write bool
	Key   uint64
	Val   [ValSize]byte
}

// Result carries a completed request's latency and outcome.
type Result struct {
	Latency sim.Time
	Val     [ValSize]byte
	Err     error
}

// Worker processes batches against the store. Mode is either batched
// libaio at a queue depth (KVell proper) or synchronous BypassD.
type Worker struct {
	st *Store
	qd int

	// libaio mode
	ctx *kernel.AioContext
	fd  int

	// bypassd mode
	th  *userlib.Thread
	bfd int

	bufs [][]byte
	ops  []kernel.AioOp
	out  []Result
}

// NewAioWorker creates a KVell worker with the given queue depth.
func NewAioWorker(p *sim.Proc, sys *core.System, st *Store, pr *kernel.Process, qd int) (*Worker, error) {
	if qd < 1 {
		return nil, fmt.Errorf("kvell: queue depth %d", qd)
	}
	fd, err := pr.Open(p, st.Path, true)
	if err != nil {
		return nil, err
	}
	w := &Worker{st: st, qd: qd, ctx: pr.NewAioContext(), fd: fd}
	for i := 0; i < qd; i++ {
		w.bufs = append(w.bufs, make([]byte, SlotSize))
	}
	return w, nil
}

// NewBypassWorker creates the synchronous BypassD variant.
func NewBypassWorker(p *sim.Proc, lib *userlib.Lib, st *Store) (*Worker, error) {
	th, err := lib.NewThread(p)
	if err != nil {
		return nil, err
	}
	fd, err := lib.Open(p, st.Path, true)
	if err != nil {
		return nil, err
	}
	return &Worker{st: st, qd: 1, th: th, bfd: fd, bufs: [][]byte{make([]byte, SlotSize)}}, nil
}

// slotFor resolves the slot for a request.
func (w *Worker) slotFor(p *sim.Proc, r *Request) (uint64, bool) {
	w.st.cpu.Compute(p, indexCost)
	slot, ok := w.st.index[r.Key]
	return slot, ok
}

// Do processes a batch of up to the worker's queue depth, returning
// per-request results. Latency is measured from batch start (requests
// wait for their whole batch, the KVell trade-off). The results slice
// belongs to the worker and is valid until its next Do.
func (w *Worker) Do(p *sim.Proc, reqs []Request) []Result {
	if len(reqs) == 0 {
		return nil
	}
	if cap(w.out) < len(reqs) {
		w.out = make([]Result, len(reqs))
	}
	out := w.out[:len(reqs)]
	clear(out)
	if w.th != nil {
		w.doBypass(p, reqs, out)
		return out
	}
	for start := 0; start < len(reqs); start += w.qd {
		end := start + w.qd
		if end > len(reqs) {
			end = len(reqs)
		}
		w.doAioBatch(p, reqs[start:end], out[start:end])
	}
	return out
}

func (w *Worker) doAioBatch(p *sim.Proc, reqs []Request, out []Result) {
	batchStart := p.Now()
	ops := w.ops[:0]
	for i := range reqs {
		r := &reqs[i]
		slot, ok := w.slotFor(p, r)
		if !ok {
			out[i] = Result{Err: fmt.Errorf("kvell: key %d not found", r.Key), Latency: 0}
			continue
		}
		buf := w.bufs[i%len(w.bufs)]
		if r.Write {
			encodeSlot(buf, r.Key, &r.Val)
		}
		ops = append(ops, kernel.AioOp{
			FD:    w.fd,
			Write: r.Write,
			Off:   int64(slot) * SlotSize,
			Buf:   buf,
			Tag:   i,
		})
	}
	w.ops = ops
	if err := w.ctx.Submit(p, ops); err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return
	}
	got := 0
	for got < len(ops) {
		for _, ev := range w.ctx.GetEvents(p, 1, len(ops)) {
			i := ev.Tag.(int)
			out[i] = Result{Latency: p.Now() - batchStart, Err: ev.Err}
			if !reqs[i].Write && ev.Err == nil {
				copy(out[i].Val[:], w.bufs[i%len(w.bufs)][KeySize:])
			}
			got++
		}
	}
}

func (w *Worker) doBypass(p *sim.Proc, reqs []Request, out []Result) {
	for i := range reqs {
		r := &reqs[i]
		start := p.Now()
		slot, ok := w.slotFor(p, r)
		if !ok {
			out[i] = Result{Err: fmt.Errorf("kvell: key %d not found", r.Key)}
			continue
		}
		buf := w.bufs[0]
		var err error
		if r.Write {
			encodeSlot(buf, r.Key, &r.Val)
			_, err = w.th.Pwrite(p, w.bfd, buf, int64(slot)*SlotSize)
		} else {
			_, err = w.th.Pread(p, w.bfd, buf, int64(slot)*SlotSize)
		}
		out[i] = Result{Latency: p.Now() - start, Err: err}
		if !r.Write && err == nil {
			copy(out[i].Val[:], buf[KeySize:])
		}
	}
}

// Sector sanity: slots must stay sector aligned.
var _ = [1]struct{}{}[SlotSize%storage.SectorSize]
