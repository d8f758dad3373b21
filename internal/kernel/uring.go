package kernel

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// io_uring in SQPOLL mode with fixed buffers, the paper's strongest
// kernel-side baseline (§6.3): the application writes submission
// entries into a shared ring without any syscall; a dedicated kernel
// thread polls the ring and executes the I/O; the application polls
// the completion ring. The polling thread costs a core — with one
// ring per application thread, io_uring needs twice the cores of the
// other systems, which is why Fig. 9 shows it collapsing past 12
// threads on the 24-thread machine.

// UringResult is one completion.
type UringResult struct {
	Tag interface{}
	N   int
	Err error
}

type uringReq struct {
	fd    int
	write bool
	off   int64
	buf   []byte
	tag   interface{}
	span  *trace.IOSpan // submitter's span, carried across the ring
}

// Uring is one ring pair with its SQPOLL kernel thread.
type Uring struct {
	pr     *Process
	sq     []uringReq
	cq     []UringResult
	sqCond *sim.Cond
	cqCond *sim.Cond
	closed bool
}

// NewUring sets up a ring and starts its kernel polling thread.
func (pr *Process) NewUring(p *sim.Proc) *Uring {
	pr.enter(p)
	pr.M.CPU.Compute(p, 5*sim.Microsecond) // ring setup + buffer registration
	pr.exit(p)
	u := &Uring{
		pr:     pr,
		sqCond: pr.M.Sim.NewCond(),
		cqCond: pr.M.Sim.NewCond(),
	}
	p.Spawn("sqpoll", u.poll) // shard-local: the poller lives on the submitter's node
	return u
}

// poll is the SQPOLL kernel thread: it spins on the submission ring
// and — in IOPOLL fashion — keeps its core through the device wait,
// so each application thread effectively costs two cores. The
// descheduling penalty past 12 threads on the 24-thread machine is
// Fig. 9's io_uring collapse.
func (u *Uring) poll(p *sim.Proc) {
	m := u.pr.M
	m.CPU.Occupy(p)
	defer m.CPU.Vacate(p)
	for {
		if u.closed {
			return
		}
		if len(u.sq) == 0 {
			u.sqCond.Wait(p)
			m.CPU.Penalty(p)
			continue
		}
		req := u.sq[0]
		u.sq = u.sq[1:]

		// The poller already owns its core (Occupy): raw time, not
		// Compute, or its demand would double-count.
		p.Sleep(UringVFSCost)
		f, err := u.pr.fd(req.fd)
		var n int
		if err == nil {
			// Thread the submitter's span through the FS → block →
			// NVMe path for the duration of this request.
			p.SetTraceCtx(req.span)
			if req.write {
				lock := m.writeLock(f.Ino)
				lock.Acquire(p)
				n, err = u.pr.node.FS.WriteAt(p, f.Ino, req.off, req.buf)
				m.syncGrowth(f.Ino)
				lock.Release()
			} else {
				n, err = u.pr.node.FS.ReadAt(p, f.Ino, req.off, req.buf)
			}
			p.SetTraceCtx(nil)
		}
		u.cq = append(u.cq, UringResult{Tag: req.tag, N: n, Err: err})
		u.cqCond.Broadcast()
		m.CPU.Penalty(p)
	}
}

// SubmitRead queues a read without entering the kernel.
func (u *Uring) SubmitRead(p *sim.Proc, fd int, buf []byte, off int64, tag interface{}) {
	u.submit(p, uringReq{fd: fd, off: off, buf: buf, tag: tag})
}

// SubmitWrite queues a write without entering the kernel.
func (u *Uring) SubmitWrite(p *sim.Proc, fd int, data []byte, off int64, tag interface{}) {
	u.submit(p, uringReq{fd: fd, write: true, off: off, buf: data, tag: tag})
}

func (u *Uring) submit(p *sim.Proc, r uringReq) {
	u.pr.M.CPU.Compute(p, 50*sim.Nanosecond) // SQE store + doorbell-free publish
	r.span = trace.SpanFrom(p)
	u.sq = append(u.sq, r)
	u.sqCond.Broadcast()
}

// Wait busy-polls the completion ring for one result.
func (u *Uring) Wait(p *sim.Proc) UringResult {
	m := u.pr.M
	for len(u.cq) == 0 {
		m.CPU.BusyWait(p, u.cqCond)
	}
	r := u.cq[0]
	u.cq = u.cq[1:]
	return r
}

// Close stops the polling thread.
func (u *Uring) Close() {
	u.closed = true
	u.sqCond.Broadcast()
}
