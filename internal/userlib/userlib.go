// Package userlib implements BypassD's UserLib: the userspace shim
// that intercepts file system calls, routes metadata operations to the
// kernel, and issues data operations directly to the device on queue
// pairs mapped into the process (paper §3.2, §4.2).
//
// Per-thread queue pairs and DMA buffers avoid synchronization on the
// data path (paper §6.3 "Scaling"). Reads and aligned overwrites go
// straight to the device using Virtual Block Addresses; appends and
// other metadata-modifying operations are forwarded to the kernel
// (paper Table 3). On a translation fault the library re-issues
// fmap(); a zero VBA means access was revoked and the file falls back
// to the kernel interface (paper §3.6).
//
// The model stages every direct transfer in the DMA buffer and charges
// the memcpy on the virtual clock. On the host, a sector-aligned
// transfer moves straight between the device and the caller's buffer;
// only unaligned reads, read-modify-write cycles and non-blocking
// writes bounce through a DMA buffer.
package userlib

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config selects the library's ablation variants; the zero value is
// the paper's design. The mapping structure fmap() builds is the
// kernel's choice, kernel.Process.ExtentFmap.
type Config struct {
	// ShareQueues makes all threads share one queue pair and DMA
	// buffer behind a lock — the ablation for the paper's claim that
	// private per-thread queues avoid synchronization costs (§6.3).
	ShareQueues bool
}

// The direct path's recovery budget: at most maxRetries attempts per
// operation — transient-error resubmissions and refmaps alike — before
// the file degrades to the kernel interface. The first retry waits
// firstBackoff and each further one twice as long.
const (
	maxRetries   = 3
	firstBackoff = 5 * sim.Microsecond
)

// libOverhead is the per-operation software cost: interception, VBA
// computation, SQE construction, completion handling. Every direct
// transfer is also charged device.CopyCost, including the
// sector-aligned ones the host moves without a copy.
const libOverhead = 150 * sim.Nanosecond

// FileState is UserLib's view of an open file (paper §3.2: flags,
// offset, size, starting VBA, ongoing partial writes).
type FileState struct {
	FD       int
	Path     string
	Base     uint64 // starting VBA; 0 = kernel interface
	Writable bool
	Size     int64
	Offset   int64

	// partial write serialization (paper §4.5.1)
	partialOffsets map[int64]int
	partialCond    *sim.Cond

	// in-flight non-blocking writes (§5.1 extension)
	pending []pendingRange
}

// Stats counts fault-path events on the direct path (the ISSUE-2
// degradation counters; experiments report behaviour under faults
// with these).
type Stats struct {
	// Retries counts recovery attempts that kept the op on the direct
	// path: backoff-resubmits after transient errors and successful
	// refmaps after translation faults.
	Retries int64
	// Fallbacks counts degradation events: direct-path ops abandoned
	// to the kernel interface after a fault (retry exhaustion or a
	// revoked mapping). The file stays on the kernel interface.
	Fallbacks int64
}

// Lib is the per-process library instance shared by all threads.
type Lib struct {
	Proc  *kernel.Process
	cfg   Config
	files map[int]*FileState

	// Stats for the harness.
	FallbackOps int64 // served via the kernel interface
	Refmaps     int64 // fmap() retries after faults
	Stats       Stats // fault-path event counters

	// Metrics handles from the machine's registry (nil-inert without
	// one). Direct-path ops and injected faults are counted only here;
	// the count* helpers keep the rest in lockstep with the tallies.
	mDirect, mKernel   *metrics.Counter
	mRefmaps, mRetries *metrics.Counter
	mDegrades          *metrics.Counter
	mInjected          *metrics.Counter

	shared      *Thread   // shared-queue ablation state
	sharedReady *sim.Cond // signalled once the shared queue exists
	sharedErr   error     // why shared-queue setup failed, if it did
}

// Counter helpers keep the exported tallies and the metrics plane in
// lockstep from every site that records an event.
func (l *Lib) countDirect()   { l.mDirect.Inc() }
func (l *Lib) countFallback() { l.FallbackOps++; l.mKernel.Inc() }
func (l *Lib) countRetry()    { l.Stats.Retries++; l.mRetries.Inc() }
func (l *Lib) countDegrade()  { l.Stats.Fallbacks++; l.mDegrades.Inc() }
func (l *Lib) countInjected() { l.mInjected.Inc() }

// New creates the library instance for a process.
func New(pr *kernel.Process, cfg Config) *Lib {
	reg := pr.M.Metrics
	return &Lib{
		Proc:      pr,
		cfg:       cfg,
		files:     make(map[int]*FileState),
		mDirect:   reg.Counter("userlib_ops_total", "path", "direct"),
		mKernel:   reg.Counter("userlib_ops_total", "path", "kernel"),
		mRefmaps:  reg.Counter("userlib_refmaps_total"),
		mRetries:  reg.Counter("userlib_retries_total"),
		mDegrades: reg.Counter("userlib_degrades_total"),
		mInjected: reg.Counter("userlib_injected_faults_total"),
	}
}

// devName names the device the library talks to (error context).
func (l *Lib) devName() string { return l.Proc.Dev().Config().Name }

// Thread is per-application-thread state: a private queue pair and
// DMA buffer, so threads never contend on the data path. In the
// shared-queue ablation, threads alias one queue behind a lock.
type Thread struct {
	Lib  *Lib
	q    *nvme.QueuePair
	dma  []byte
	lock *sim.Resource // non-nil only when queues are shared

	// DeviceNS accumulates the submit-to-completion time of direct
	// reads and writes; the Fig. 7 breakdown charges the rest of an
	// op's latency to the library and its copies.
	DeviceNS sim.Time
}

// NewThread initializes the thread's queues and DMA buffer through
// the BypassD kernel module (paper §3.3).
func (l *Lib) NewThread(p *sim.Proc) (*Thread, error) {
	if l.cfg.ShareQueues {
		return l.sharedThread(p)
	}
	q, err := l.Proc.CreateUserQueue(p, device.UserQueueDepth)
	if err != nil {
		return nil, err
	}
	return &Thread{
		Lib: l,
		q:   q,
		dma: l.Proc.AllocDMABuffer(p, device.DMABufBytes),
	}, nil
}

// sharedThread hands out aliases of one process-wide queue pair,
// creating it exactly once even when threads race through the
// blocking setup calls.
func (l *Lib) sharedThread(p *sim.Proc) (*Thread, error) {
	if l.shared == nil {
		t := &Thread{Lib: l, lock: l.Proc.M.Sim.NewResourceOn(p.Shard(), "userlib-shared-q", 1)}
		l.shared = t
		l.sharedReady = l.Proc.M.Sim.NewCond()
		q, err := l.Proc.CreateUserQueue(p, device.UserQueueDepth)
		if err != nil {
			l.shared = nil
			l.sharedErr = fmt.Errorf("userlib: shared queue setup on dev %s: %w", l.devName(), err)
			l.sharedReady.Broadcast()
			return nil, l.sharedErr
		}
		t.q = q
		t.dma = l.Proc.AllocDMABuffer(p, device.DMABufBytes)
		l.sharedReady.Broadcast()
		return t, nil
	}
	for l.shared != nil && l.shared.dma == nil {
		l.sharedReady.Wait(p)
	}
	if l.shared == nil {
		// Re-report the creator's failure to every waiter with the
		// original device context intact.
		return nil, fmt.Errorf("userlib: shared queue setup failed: %w", l.sharedErr)
	}
	return &Thread{Lib: l, q: l.shared.q, dma: l.shared.dma, lock: l.shared.lock}, nil
}

// acquire/release guard the shared queue and DMA buffer.
func (t *Thread) acquire(p *sim.Proc) {
	if t.lock != nil {
		t.lock.Acquire(p)
	}
}

func (t *Thread) release() {
	if t.lock != nil {
		t.lock.Release()
	}
}

// Open intercepts open(): forward to the kernel and fmap() for the
// BypassD interface. The returned fd works regardless of whether
// direct access was granted.
func (l *Lib) Open(p *sim.Proc, path string, write bool) (int, error) {
	fd, base, err := l.Proc.OpenBypass(p, path, write)
	if err != nil {
		return 0, err
	}
	f, err := l.Proc.FDInfo(fd)
	if err != nil {
		return 0, err
	}
	l.files[fd] = &FileState{
		FD:             fd,
		Path:           path,
		Base:           base,
		Writable:       write,
		Size:           f.Size(),
		partialOffsets: make(map[int64]int),
		partialCond:    l.Proc.M.Sim.NewCond(),
	}
	return fd, nil
}

// state resolves library state for fd.
func (l *Lib) state(fd int) (*FileState, error) {
	fs, ok := l.files[fd]
	if !ok {
		return nil, fmt.Errorf("userlib: fd %d not opened through UserLib", fd)
	}
	return fs, nil
}

// State exposes the file state (tests, Fig. 12 harness).
func (l *Lib) State(fd int) (*FileState, error) { return l.state(fd) }

// Direct reports whether fd currently uses the BypassD interface.
func (fs *FileState) Direct() bool { return fs.Base > 0 }

// doVBA runs one VBA command to completion on the thread's queue,
// recording its device time. Callers in shared-queue mode hold the
// queue lock around the op including its DMA-buffer copies.
func (t *Thread) doVBA(p *sim.Proc, op nvme.Opcode, vba uint64, buf []byte) nvme.Status {
	start := p.Now()
	c, err := t.q.Exec(p, t.Lib.Proc.M.CPU, nvme.SQE{
		Opcode:  op,
		UseVBA:  true,
		VBA:     vba,
		Sectors: int64(len(buf)) / storage.SectorSize,
		Buf:     buf,
		Span:    trace.SpanFrom(p),
	})
	if err != nil {
		return nvme.StatusInternalError
	}
	t.DeviceNS += p.Now() - start
	return c.Status
}

// backoff returns the exponential delay before retry n (1-based, at
// most maxRetries): 5, 10 and 20 µs.
func backoff(n int) sim.Time { return firstBackoff << (n - 1) }

// degrade routes the file to the kernel interface permanently (the
// fallback leg of the §3.6 state machine) and counts the event.
func (l *Lib) degrade(fs *FileState) {
	fs.Base = 0
	l.countDegrade()
}

// opError wraps a direct-path failure with the device name, queue ID
// and NVMe status so injected faults are diagnosable from test output.
func (t *Thread) opError(op string, fs *FileState, off int64, st nvme.Status) error {
	return fmt.Errorf("userlib: %s %s at %d (dev %s, queue %d): nvme status %v",
		op, fs.Path, off, t.Lib.devName(), t.q.ID, st)
}

// vbaRetry runs one direct-path command through the bounded
// retry-with-backoff state machine:
//
//	submit ──ok──────────────────────────────▶ done (direct)
//	   │ transient (media error, timeout, backpressure)
//	   │      └─ retries left: sleep backoff, resubmit
//	   │ translation fault / access denied
//	   │      └─ refmaps left: re-issue fmap(), resubmit
//	   │                └─ fmap() returns VBA 0 ─▶ fallback (permanent)
//	   └─ budget exhausted ──▶ degrade: fs.Base = 0, fallback (permanent)
//
// fellBack=true tells the caller to route this op — and, since
// fs.Base is now 0, every later op on the file — through the kernel.
// A non-OK status with fellBack=false is a hard error (the caller
// reports it via opError). The VBA is recomputed from fs.Base each
// attempt because refmap may move the mapping.
func (t *Thread) vbaRetry(p *sim.Proc, fs *FileState, op nvme.Opcode, alignedOff int64, dma []byte) (st nvme.Status, fellBack bool) {
	l := t.Lib
	inj := l.Proc.M.Faults
	retries, refmaps := 0, 0
	for {
		if inj.Fire(faults.SiteQueueFull) {
			// Injected submission backpressure: treat exactly like a
			// full ring — back off, then resubmit.
			l.countInjected()
			if retries >= maxRetries {
				l.degrade(fs)
				return nvme.StatusCommandTimeout, true
			}
			retries++
			l.countRetry()
			p.Sleep(backoff(retries))
			continue
		}
		st = t.doVBA(p, op, fs.Base+uint64(alignedOff), dma)
		switch {
		case st.OK():
			return st, false
		case st == nvme.StatusTranslationFault || st == nvme.StatusAccessDenied:
			// Revocation or a spurious IOMMU fault: re-issue fmap()
			// and resubmit (paper §3.6).
			if refmaps >= maxRetries || inj.Fire(faults.SiteRefmapExhaust) {
				l.degrade(fs)
				return st, true
			}
			refmaps++
			if !t.refmap(p, fs) {
				// fmap() returned VBA 0: access revoked; refmap
				// already cleared fs.Base.
				l.countDegrade()
				return st, true
			}
			l.countRetry()
		case st.Transient():
			// Media error or command timeout — only the fault plane
			// produces these.
			l.countInjected()
			if retries >= maxRetries {
				l.degrade(fs)
				return st, true
			}
			retries++
			l.countRetry()
			p.Sleep(backoff(retries))
		default:
			return st, false // hard error: caller reports it
		}
	}
}

// refmap re-issues fmap() after a fault. A zero VBA means revoked:
// the file permanently falls back to the kernel interface (§3.6).
func (t *Thread) refmap(p *sim.Proc, fs *FileState) bool {
	t.Lib.Refmaps++
	t.Lib.mRefmaps.Inc()
	base, err := t.Lib.Proc.Fmap(p, fs.FD)
	if err != nil || base == 0 {
		fs.Base = 0
		return false
	}
	fs.Base = base
	return true
}

// Pread intercepts pread(): direct VBA read with sector-granularity
// alignment handled in the DMA buffer.
func (t *Thread) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	l := t.Lib
	fs, err := l.state(fd)
	if err != nil {
		return 0, err
	}
	if !fs.Direct() {
		l.countFallback()
		return l.Proc.Pread(p, fd, buf, off)
	}
	if off >= fs.Size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > fs.Size {
		n = fs.Size - off
	}
	m := l.Proc.M
	m.CPU.Compute(p, libOverhead)

	alignedOff := off &^ (storage.SectorSize - 1)
	alignedEnd := (off + n + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	span := alignedEnd - alignedOff
	if span > int64(len(t.dma)) {
		// Large transfers go in chunks of half the DMA buffer.
		var done int64
		for done < n {
			chunk := n - done
			if chunk > int64(len(t.dma))/2 {
				chunk = int64(len(t.dma)) / 2
			}
			c, err := t.Pread(p, fd, buf[done:done+chunk], off+done)
			if err != nil {
				return int(done), err
			}
			done += int64(c)
		}
		return int(done), nil
	}

	// Reads must see the latest data even if it sits in an
	// unprocessed non-blocking write (§5.1).
	fs.waitRange(p, m.CPU, alignedOff, span)

	t.acquire(p)
	// A sector-aligned read DMAs straight into the caller's buffer; an
	// unaligned or EOF-truncated one lands in the DMA buffer and is
	// copied out. The virtual clock charges the copy either way.
	zeroCopy := alignedOff == off && span == n
	dma := buf[:n]
	if !zeroCopy {
		dma = t.dma[:span]
	}
	st, fellBack := t.vbaRetry(p, fs, nvme.OpRead, alignedOff, dma)
	if fellBack {
		t.release()
		l.countFallback()
		return l.Proc.Pread(p, fd, buf, off)
	}
	if !st.OK() {
		t.release()
		return 0, t.opError("read", fs, off, st)
	}
	m.CPU.Compute(p, device.CopyCost(int(n)))
	if !zeroCopy {
		copy(buf[:n], dma[off-alignedOff:])
	}
	t.release()
	l.countDirect()
	return int(n), nil
}

// Pwrite intercepts pwrite(). Overwrites go direct; appends route to
// the kernel (paper Table 3); sub-sector writes serialize and use
// read-modify-write (paper §4.5.1).
func (t *Thread) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	l := t.Lib
	fs, err := l.state(fd)
	if err != nil {
		return 0, err
	}
	if !fs.Writable {
		return 0, ext4.ErrPerm
	}
	if !fs.Direct() {
		l.countFallback()
		n, err := l.Proc.Pwrite(p, fd, data, off)
		if off+int64(n) > fs.Size {
			fs.Size = off + int64(n)
		}
		return n, err
	}
	n := int64(len(data))
	if off+n > fs.Size {
		// Append: modifies metadata, so the kernel handles it and
		// issues the write directly to the device without buffering.
		l.countFallback()
		w, err := l.Proc.Pwrite(p, fd, data, off)
		if off+int64(w) > fs.Size {
			fs.Size = off + int64(w)
		}
		return w, err
	}

	m := l.Proc.M
	m.CPU.Compute(p, libOverhead)

	aligned := off%storage.SectorSize == 0 && n%storage.SectorSize == 0
	if !aligned {
		return t.partialWrite(p, fs, data, off)
	}
	if n > int64(len(t.dma)) {
		var done int64
		for done < n {
			chunk := n - done
			if chunk > int64(len(t.dma)) {
				chunk = int64(len(t.dma))
			}
			c, err := t.Pwrite(p, fd, data[done:done+chunk], off+done)
			if err != nil {
				return int(done), err
			}
			done += int64(c)
		}
		return int(done), nil
	}

	t.acquire(p)
	// The virtual clock charges the copy into the DMA buffer; on the
	// host the device reads the caller's (aligned) slice directly.
	m.CPU.Compute(p, device.CopyCost(int(n)))

	st, fellBack := t.vbaRetry(p, fs, nvme.OpWrite, off, data)
	if fellBack {
		t.release()
		l.countFallback()
		return l.Proc.Pwrite(p, fd, data, off)
	}
	t.release()
	if !st.OK() {
		return 0, t.opError("write", fs, off, st)
	}
	if f, err := l.Proc.FDInfo(fd); err == nil {
		f.MarkTimesDirty()
	}
	l.countDirect()
	return int(n), nil
}

// partialWrite serializes sub-sector writes to the same sectors and
// performs read-modify-write (paper §4.5.1: "UserLib serializes
// partial writes to the same file to avoid data inconsistencies").
func (t *Thread) partialWrite(p *sim.Proc, fs *FileState, data []byte, off int64) (int, error) {
	l := t.Lib
	n := int64(len(data))
	first := off / storage.SectorSize
	last := (off + n - 1) / storage.SectorSize

	overlaps := func() bool {
		for s := first; s <= last; s++ {
			if fs.partialOffsets[s] > 0 {
				return true
			}
		}
		return false
	}
	for overlaps() {
		fs.partialCond.Wait(p)
	}
	for s := first; s <= last; s++ {
		fs.partialOffsets[s]++
	}
	defer func() {
		for s := first; s <= last; s++ {
			fs.partialOffsets[s]--
			if fs.partialOffsets[s] == 0 {
				delete(fs.partialOffsets, s)
			}
		}
		fs.partialCond.Broadcast()
	}()

	alignedOff := first * storage.SectorSize
	span := (last - first + 1) * storage.SectorSize
	t.acquire(p)
	defer t.release()
	dma := t.dma[:span]
	st, fellBack := t.vbaRetry(p, fs, nvme.OpRead, alignedOff, dma)
	if !fellBack && st.OK() {
		l.Proc.M.CPU.Compute(p, device.CopyCost(int(n)))
		copy(dma[off-alignedOff:], data)
		st, fellBack = t.vbaRetry(p, fs, nvme.OpWrite, alignedOff, dma)
	}
	if fellBack {
		// The RMW lost its mapping mid-flight: the kernel path writes
		// the sub-sector payload itself (the partial-offset locks held
		// here still exclude concurrent overlapping partials).
		l.countFallback()
		return l.Proc.Pwrite(p, fs.FD, data, off)
	}
	if !st.OK() {
		return 0, t.opError("rmw", fs, off, st)
	}
	l.countDirect()
	return int(n), nil
}

// Write writes at the shared file offset and advances it (all threads
// of the process see a consistent view, paper §4.5.1).
func (t *Thread) Write(p *sim.Proc, fd int, data []byte) (int, error) {
	fs, err := t.Lib.state(fd)
	if err != nil {
		return 0, err
	}
	n, err := t.Pwrite(p, fd, data, fs.Offset)
	fs.Offset += int64(n)
	return n, err
}

// Fsync flushes the thread's queues (NVMe flush) for durability, then
// lets the kernel flush file metadata (paper Table 3).
func (t *Thread) Fsync(p *sim.Proc, fd int) error {
	t.acquire(p)
	c, err := t.q.Exec(p, t.Lib.Proc.M.CPU, nvme.SQE{Opcode: nvme.OpFlush, Span: trace.SpanFrom(p)})
	t.release()
	if err != nil {
		return err
	}
	if !c.Status.OK() {
		return fmt.Errorf("userlib: flush (dev %s, queue %d): nvme status %v",
			t.Lib.devName(), t.q.ID, c.Status)
	}
	return t.Lib.Proc.Fsync(p, fd)
}

// Close forwards to the kernel, which detaches the file tables.
func (l *Lib) Close(p *sim.Proc, fd int) error {
	delete(l.files, fd)
	return l.Proc.Close(p, fd)
}

// OptimizedAppend implements §5.1: preallocate blocks with
// fallocate() in large chunks, then issue the append as a userspace
// overwrite into the preallocated region.
func (t *Thread) OptimizedAppend(p *sim.Proc, fd int, data []byte, chunk int64) (int, error) {
	l := t.Lib
	fs, err := l.state(fd)
	if err != nil {
		return 0, err
	}
	if !fs.Direct() {
		return t.Write(p, fd, data)
	}
	end := fs.Offset + int64(len(data))
	if f, err := l.Proc.FDInfo(fd); err == nil && end > f.Size() {
		target := (end + chunk - 1) / chunk * chunk
		if err := l.Proc.Fallocate(p, fd, target); err != nil {
			return 0, err
		}
		fs.Size = target
	} else if end > fs.Size {
		fs.Size = end
	}
	n, err := t.Pwrite(p, fd, data, fs.Offset)
	fs.Offset += int64(n)
	return n, err
}
