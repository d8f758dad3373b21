package kernel

import (
	"fmt"

	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Linux-native AIO (io_submit/io_getevents) over O_DIRECT files.
// Submission walks the full VFS/block/driver stack synchronously (as
// libaio does); completion is interrupt-driven and reaped by
// io_getevents. At queue depth 1 the latency matches the synchronous
// path plus the extra syscall pair (paper Fig. 6); at high queue
// depth it trades latency for throughput (the KVell configuration,
// Fig. 16).

// AioOp describes one asynchronous I/O.
type AioOp struct {
	FD    int
	Write bool
	Off   int64
	Buf   []byte
	Tag   interface{} // opaque cookie returned in the result
}

// AioResult is one reaped completion.
type AioResult struct {
	Tag interface{}
	N   int
	Err error
}

// AioContext is an AIO completion context (io_setup).
type AioContext struct {
	pr       *Process
	inflight int
	done     []AioResult
	cond     *sim.Cond

	// reqFree recycles the per-op helper state (and its resolved
	// segment buffer) so a deep-queue submitter like KVell allocates
	// nothing per I/O in steady state.
	reqFree []*aioReq
}

// aioReq carries one submitted op to its helper proc. run is the
// helper body, bound once when the box is made, so a spawn allocates
// no per-op closure (TestKVellLibaioAllocBudget pins this).
type aioReq struct {
	c    *AioContext
	op   AioOp
	segs []sectorSeg
	sp   *trace.IOSpan
	run  func(*sim.Proc)
}

// NewAioContext creates a context.
func (pr *Process) NewAioContext() *AioContext {
	return &AioContext{pr: pr, cond: pr.M.Sim.NewCond()}
}

// getReq hands out a request box for one submitted op.
func (c *AioContext) getReq() *aioReq {
	if n := len(c.reqFree); n > 0 {
		r := c.reqFree[n-1]
		c.reqFree[n-1] = nil
		c.reqFree = c.reqFree[:n-1]
		return r
	}
	r := &aioReq{c: c}
	r.run = r.exec
	return r
}

// putReq retires a request box, keeping its segment buffer for reuse.
func (c *AioContext) putReq(r *aioReq) {
	r.op = AioOp{}
	r.sp = nil
	c.reqFree = append(c.reqFree, r)
}

// Inflight reports submitted-but-unreaped operations.
func (c *AioContext) Inflight() int { return c.inflight + len(c.done) }

// Submit issues a batch (io_submit): one syscall, full kernel
// submission work per op, returns without waiting.
func (c *AioContext) Submit(p *sim.Proc, ops []AioOp) error {
	pr := c.pr
	pr.enter(p)
	defer pr.exit(p)
	for _, op := range ops {
		f, err := pr.fd(op.FD)
		if err != nil {
			return err
		}
		if op.Off%storage.SectorSize != 0 || int64(len(op.Buf))%storage.SectorSize != 0 {
			return fmt.Errorf("kernel: aio requires sector-aligned O_DIRECT I/O")
		}
		if op.Write && !f.Writable {
			return ext4.ErrPerm
		}
		// AIO does not extend files: writes must stay within the
		// allocated range (KVell preallocates its slabs).
		if op.Off+int64(len(op.Buf)) > f.Ino.AllocatedBlocks()*ext4.BlockSize {
			return fmt.Errorf("kernel: aio beyond allocated range of %s", f.Path)
		}
		var lock *sim.Resource
		if op.Write {
			// i_rwsem: serialize write submission to the same inode.
			lock = pr.M.writeLock(f.Ino)
			lock.Acquire(p)
		}
		pr.vfsCharge(p, len(op.Buf))
		pr.M.CPU.Compute(p, BlockLayer+DriverSubmit)

		req := c.getReq()
		segs, err := resolveSectorsInto(req.segs, f.Ino, op.Off, int64(len(op.Buf)))
		if lock != nil {
			lock.Release()
		}
		if err != nil {
			c.putReq(req)
			return err
		}
		c.inflight++
		req.op = op
		req.segs = segs
		// The span belongs to the submitting proc; capture it here so
		// the helper proc's submissions mark the right request.
		req.sp = trace.SpanFrom(p)
		p.Spawn("aio-op", req.run)
	}
	return nil
}

// exec is the helper-proc body: execute one submitted op's device
// commands, post its result, and retire the request box.
func (req *aioReq) exec(w *sim.Proc) {
	c := req.c
	pr := c.pr
	opcode := nvme.OpRead
	if req.op.Write {
		opcode = nvme.OpWrite
	}
	var bad error
	bufOff := int64(0)
	for _, s := range req.segs {
		n := s.Sectors * storage.SectorSize
		st := pr.node.kq.submitRetry(w, nvme.SQE{
			Opcode:  opcode,
			SLBA:    s.Sector,
			Sectors: s.Sectors,
			Buf:     req.op.Buf[bufOff : bufOff+n],
			Span:    req.sp,
		})
		if !st.OK() {
			bad = fmt.Errorf("kernel: aio %v at sector %d on %s: %v",
				opcode, s.Sector, pr.node.Dev.Config().Name, st)
			break
		}
		bufOff += n
	}
	c.inflight--
	n := len(req.op.Buf)
	if bad != nil {
		n = 0
	}
	c.done = append(c.done, AioResult{Tag: req.op.Tag, N: n, Err: bad})
	c.putReq(req)
	c.cond.Broadcast()
}

// GetEvents reaps between min and max completions (io_getevents),
// sleeping (not spinning) while fewer than min are ready.
func (c *AioContext) GetEvents(p *sim.Proc, min, max int) []AioResult {
	pr := c.pr
	pr.enter(p)
	defer pr.exit(p)
	if avail := c.inflight + len(c.done); min > avail {
		min = avail
	}
	for len(c.done) < min {
		c.cond.Wait(p)
	}
	n := len(c.done)
	if n > max {
		n = max
	}
	out := make([]AioResult, n)
	copy(out, c.done)
	c.done = c.done[n:]
	pr.M.CPU.Compute(p, sim.Time(n)*AioReap)
	return out
}

// sectorSeg is a contiguous device range.
type sectorSeg struct {
	Sector  int64
	Sectors int64
}

// resolveSectorsInto maps a byte range of a file to device sectors
// using the inode's extent tree, appending into a caller-reused buffer
// (from segs[:0]); synchronous resubmission loops such as XRP chains
// use it to avoid one allocation per hop.
func resolveSectorsInto(segs []sectorSeg, in *ext4.Inode, off, length int64) ([]sectorSeg, error) {
	segs = segs[:0]
	for length > 0 {
		fb := off / ext4.BlockSize
		disk, ok := in.LookupBlock(fb)
		if !ok {
			return nil, fmt.Errorf("kernel: unmapped file block %d", fb)
		}
		inner := off % ext4.BlockSize
		n := ext4.BlockSize - inner
		if n > length {
			n = length
		}
		sec := disk*ext4.SectorsPerBlock + inner/storage.SectorSize
		cnt := n / storage.SectorSize
		if len(segs) > 0 && segs[len(segs)-1].Sector+segs[len(segs)-1].Sectors == sec {
			segs[len(segs)-1].Sectors += cnt
		} else {
			segs = append(segs, sectorSeg{Sector: sec, Sectors: cnt})
		}
		off += n
		length -= n
	}
	return segs, nil
}
