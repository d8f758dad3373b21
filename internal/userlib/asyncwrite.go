package userlib

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Non-blocking writes (paper §5.1 "Enhancements"): a write returns as
// soon as its data has been copied into a pinned staging slot and the
// command submitted; completion is reaped opportunistically. The
// consistency cost the paper warns about is paid on the read side:
// reads that overlap a buffered, unprocessed write must observe the
// latest data, which this implementation guarantees with per-file
// range tracking in the spirit of CrossFS's per-inode range locks —
// an overlapping read waits for the covering writes to retire.

// asyncSlot is one in-flight write's staging buffer.
type asyncSlot struct {
	cid  uint16
	buf  []byte
	fs   *FileState
	off  int64
	n    int64
	busy bool
}

// AsyncWriter issues non-blocking writes on its own queue pair. One
// application thread drives a writer.
type AsyncWriter struct {
	lib   *Lib
	q     *nvme.QueuePair
	slots []*asyncSlot
	byCID map[uint16]*asyncSlot
	cid   uint16
	sync  *Thread // synchronous fallback path, created on first use

	inflight int
	retired  *sim.Cond // signalled whenever a write completes

	// Writes accepted and completed (stats).
	Submitted int64
	Completed int64
	Errors    int64
}

// NewAsyncWriter allocates depth staging slots of slotBytes each.
func (l *Lib) NewAsyncWriter(p *sim.Proc, depth, slotBytes int) (*AsyncWriter, error) {
	if depth < 1 {
		return nil, fmt.Errorf("userlib: async depth %d", depth)
	}
	q, err := l.Proc.CreateUserQueue(p, depth*2)
	if err != nil {
		return nil, err
	}
	w := &AsyncWriter{
		lib:     l,
		q:       q,
		byCID:   make(map[uint16]*asyncSlot),
		retired: l.Proc.M.Sim.NewCond(),
	}
	dma := l.Proc.AllocDMABuffer(p, depth*slotBytes)
	for i := 0; i < depth; i++ {
		w.slots = append(w.slots, &asyncSlot{buf: dma[i*slotBytes : (i+1)*slotBytes]})
	}
	return w, nil
}

// reap drains posted completions, releasing slots and their ranges.
func (w *AsyncWriter) reap() {
	for {
		c, ok := w.q.PopCQE()
		if !ok {
			return
		}
		slot := w.byCID[c.CID]
		if slot == nil {
			continue
		}
		delete(w.byCID, c.CID)
		if !c.Status.OK() {
			w.Errors++
		}
		slot.fs.rangeClear(slot.off, slot.n)
		slot.fs = nil
		slot.busy = false
		w.inflight--
		w.Completed++
		w.retired.Broadcast()
	}
}

// freeSlot returns an idle slot, waiting for a retirement if all are
// in flight (this wait is the submission-side backpressure).
func (w *AsyncWriter) freeSlot(p *sim.Proc) *asyncSlot {
	m := w.lib.Proc.M
	for {
		w.reap()
		for _, s := range w.slots {
			if !s.busy {
				return s
			}
		}
		m.CPU.BusyWait(p, w.q.CQReady)
	}
}

// Pwrite issues a non-blocking overwrite. It returns once the data is
// staged and submitted; durability requires Drain or Fsync. Appends
// and kernel-interface files fall back to the synchronous path.
func (w *AsyncWriter) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	l := w.lib
	fs, err := l.state(fd)
	if err != nil {
		return 0, err
	}
	n := int64(len(data))
	if !fs.Direct() || off+n > fs.Size ||
		off%storage.SectorSize != 0 || n%storage.SectorSize != 0 {
		// Metadata-modifying, unaligned, or revoked: synchronous path,
		// on one thread (queue pair and DMA buffer) kept for reuse.
		if w.sync == nil {
			th, err := l.NewThread(p)
			if err != nil {
				return 0, err
			}
			w.sync = th
		}
		return w.sync.Pwrite(p, fd, data, off)
	}
	m := l.Proc.M
	m.CPU.Compute(p, libOverhead)

	slot := w.freeSlot(p)
	if n > int64(len(slot.buf)) {
		return 0, fmt.Errorf("userlib: async write %d exceeds slot size %d", n, len(slot.buf))
	}
	m.CPU.Compute(p, device.CopyCost(int(n)))
	copy(slot.buf[:n], data)

	w.cid++
	slot.cid = w.cid
	slot.fs = fs
	slot.off = off
	slot.n = n
	slot.busy = true
	fs.rangeAdd(off, n, w)
	if err := w.q.Submit(nvme.SQE{
		Opcode:  nvme.OpWrite,
		CID:     slot.cid,
		UseVBA:  true,
		VBA:     fs.Base + uint64(off),
		Sectors: n / storage.SectorSize,
		Buf:     slot.buf[:n],
	}); err != nil {
		fs.rangeClear(off, n)
		slot.busy = false
		slot.fs = nil
		return 0, err
	}
	w.byCID[slot.cid] = slot
	w.inflight++
	w.Submitted++
	if f, err := l.Proc.FDInfo(fd); err == nil {
		f.MarkTimesDirty()
	}
	return int(n), nil
}

// Drain blocks until every submitted write has retired, then reports
// the first error class encountered, if any.
func (w *AsyncWriter) Drain(p *sim.Proc) error {
	m := w.lib.Proc.M
	for w.inflight > 0 {
		w.reap()
		if w.inflight == 0 {
			break
		}
		m.CPU.BusyWait(p, w.q.CQReady)
	}
	if w.Errors > 0 {
		return fmt.Errorf("userlib: %d async writes failed", w.Errors)
	}
	return nil
}

// Inflight reports outstanding writes.
func (w *AsyncWriter) Inflight() int { return w.inflight }

// --- per-file pending-write ranges -----------------------------------

// pendingRange marks [off, off+n) as covered by an unretired write.
type pendingRange struct {
	off, n int64
	w      *AsyncWriter
}

// rangeAdd registers an in-flight write range on the file.
func (fs *FileState) rangeAdd(off, n int64, w *AsyncWriter) {
	fs.pending = append(fs.pending, pendingRange{off: off, n: n, w: w})
}

// rangeClear removes one pending range.
func (fs *FileState) rangeClear(off, n int64) {
	for i, r := range fs.pending {
		if r.off == off && r.n == n {
			fs.pending = append(fs.pending[:i], fs.pending[i+1:]...)
			return
		}
	}
}

// overlapsPending returns a writer whose in-flight write intersects
// [off, off+n), or nil.
func (fs *FileState) overlapsPending(off, n int64) *AsyncWriter {
	for _, r := range fs.pending {
		if off < r.off+r.n && r.off < off+n {
			return r.w
		}
	}
	return nil
}

// waitRange blocks until [off, off+n) has no in-flight writes.
func (fs *FileState) waitRange(p *sim.Proc, cpu *sim.CPUSet, off, n int64) {
	for {
		w := fs.overlapsPending(off, n)
		if w == nil {
			return
		}
		w.reap()
		if fs.overlapsPending(off, n) == nil {
			return
		}
		cpu.BusyWait(p, w.q.CQReady)
	}
}
