// Package core assembles the full BypassD system — simulated machine,
// Optane-class SSD, IOMMU, ext4, kernel, and UserLib — and exposes a
// uniform per-thread file I/O interface over every system evaluated
// in the paper: the synchronous kernel path, libaio, io_uring
// (SQPOLL), SPDK, and BypassD itself.
package core

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/userlib"
)

// Engine identifies one of the compared I/O systems.
type Engine string

// The engines of the paper's evaluation (§6.3).
const (
	EngineSync    Engine = "sync"
	EngineLibaio  Engine = "libaio"
	EngineUring   Engine = "io_uring"
	EngineSPDK    Engine = "spdk"
	EngineBypassD Engine = "bypassd"
)

// AllEngines lists every engine in the paper's comparison order.
var AllEngines = []Engine{EngineSync, EngineLibaio, EngineUring, EngineSPDK, EngineBypassD}

// System is a booted machine.
type System struct {
	Sim *sim.Sim
	M   *kernel.Machine

	// libsMu guards libs: per-tenant workers on different event
	// shards create their libraries concurrently at the start of an
	// armed (parallel) traffic phase.
	libsMu sync.Mutex
	libs   map[*kernel.Process]*userlib.Lib
	spdk   *spdk.Driver

	// ownStore marks a system booted on a fresh store (not a caller's
	// prebuilt image); only then may Close recycle the chunks.
	ownStore bool
}

// Config is the boot config of a system: its topology and the
// observers its machine is born with.
type Config struct {
	// Capacity is each SSD's size in bytes.
	Capacity int64
	// Devices is the number of Optane-class SSDs behind the machine's
	// IOMMUs; < 1 means 1. Each boots on its own fresh store.
	Devices int
	// Image is a prebuilt storage image for a single-SSD system to
	// mount instead of formatting a fresh store.
	Image *storage.Store
	// Observers are the machine's fault injector, trace collector and
	// metrics registry. A nil collector or registry falls back to the
	// process-global one (trace.Activate, metrics.Activate), if armed.
	kernel.Observers
}

// Boot boots a system with the paper's device and kernel calibration
// on a new simulation.
func Boot(c Config) (*System, error) {
	if c.Devices < 1 {
		c.Devices = 1
	}
	if c.Trace == nil {
		c.Trace = trace.Active()
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Active()
	}
	dcfgs := make([]device.Config, c.Devices)
	for i := range dcfgs {
		dcfgs[i] = device.OptaneP5800X(c.Capacity)
	}
	var sts []*storage.Store
	if c.Image != nil {
		sts = []*storage.Store{c.Image}
	}
	s := sim.New()
	m, err := kernel.NewMachineN(s, dcfgs, sts, c.Observers)
	if err != nil {
		return nil, err
	}
	return &System{Sim: s, M: m, libs: make(map[*kernel.Process]*userlib.Lib), ownStore: c.Image == nil}, nil
}

// New boots a fresh single-SSD system of capacityBytes on a new
// simulation.
func New(capacityBytes int64) (*System, error) { return Boot(Config{Capacity: capacityBytes}) }

// Close shuts the simulation down and, when the system owns its
// backing store (booted fresh rather than from a caller's image),
// returns the store's chunks to the shared pool. Harnesses that boot
// and discard a machine per run call this instead of Sim.Shutdown;
// callers that remount the image afterwards (crash-recovery tests)
// must stick to Sim.Shutdown.
func (sys *System) Close() {
	sys.Sim.Shutdown()
	sys.M.ReleaseResources()
	if sys.spdk != nil {
		sys.spdk.ReleaseResources()
	}
	if sys.ownStore {
		for _, n := range sys.M.Nodes {
			n.Dev.Store().Release()
		}
	}
}

// NewProcess creates a process with the given credentials on device
// node 0.
func (sys *System) NewProcess(cred ext4.Cred) *kernel.Process {
	return sys.M.NewProcess(cred)
}

// NewProcessOn creates a process bound to topology node devIdx; its
// files, queues, and direct mappings all live on that device.
func (sys *System) NewProcessOn(cred ext4.Cred, devIdx int) *kernel.Process {
	return sys.M.NewProcessOn(cred, devIdx)
}

// Lib returns the process's UserLib instance, creating it on first
// use (one shim library per process, shared by its threads).
func (sys *System) Lib(pr *kernel.Process) *userlib.Lib {
	sys.libsMu.Lock()
	defer sys.libsMu.Unlock()
	l, ok := sys.libs[pr]
	if !ok {
		l = userlib.New(pr, userlib.Config{})
		sys.libs[pr] = l
	}
	return l
}

// SPDK returns the system's SPDK driver, claiming the device
// exclusively on first use. It fails if the device is already shared.
func (sys *System) SPDK() (*spdk.Driver, error) {
	if sys.spdk == nil {
		d, err := spdk.Claim(sys.M.CPU, sys.M.Dev)
		if err != nil {
			return nil, err
		}
		sys.spdk = d
	}
	return sys.spdk, nil
}

// Snapshot commits outstanding metadata and returns a deep copy of
// the storage image, used to rerun application benchmarks from the
// same starting state.
func (sys *System) Snapshot(p *sim.Proc) (*storage.Store, error) {
	if err := sys.M.FS.Unmount(p); err != nil {
		return nil, err
	}
	return sys.M.Dev.Store().Clone(), nil
}

// FileIO is the uniform per-thread interface over all engines. A
// FileIO must only be used from the thread (sim.Proc) it was created
// for.
type FileIO interface {
	Engine() Engine
	Open(p *sim.Proc, path string, write bool) (int, error)
	Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error)
	Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error)
	Fsync(p *sim.Proc, fd int) error
	Close(p *sim.Proc, fd int) error
}

// NewFileIO creates a per-thread handle for the given engine. All
// threads of a workload should share pr (one process) unless the
// experiment is about inter-process sharing.
func (sys *System) NewFileIO(p *sim.Proc, pr *kernel.Process, e Engine) (FileIO, error) {
	var inner FileIO
	switch e {
	case EngineSync:
		inner = &syncIO{pr: pr}
	case EngineLibaio:
		inner = &aioIO{pr: pr, ctx: pr.NewAioContext()}
	case EngineUring:
		inner = &uringIO{pr: pr, u: pr.NewUring(p)}
	case EngineBypassD:
		lib := sys.Lib(pr)
		th, err := lib.NewThread(p)
		if err != nil {
			return nil, err
		}
		inner = &bypassIO{lib: lib, th: th}
	case EngineSPDK:
		d, err := sys.SPDK()
		if err != nil {
			return nil, err
		}
		q, err := d.NewQueue(p)
		if err != nil {
			return nil, err
		}
		inner = &spdkIO{d: d, q: q}
	default:
		return nil, fmt.Errorf("core: unknown engine %q", e)
	}
	if tr := sys.M.Trace; tr != nil {
		return &tracedIO{inner: inner, tr: tr}, nil
	}
	return inner, nil
}

// tracedIO decorates a FileIO with per-request spans: each Pread /
// Pwrite / Fsync opens an IOSpan, threads it down the stack via the
// proc's trace context, and finishes it on return. Installed by
// NewFileIO when the machine has a tracer attached.
type tracedIO struct {
	inner FileIO
	tr    *trace.Tracer
}

func (io *tracedIO) Engine() Engine { return io.inner.Engine() }
func (io *tracedIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	return io.inner.Open(p, path, write)
}
func (io *tracedIO) traced(p *sim.Proc, op string, fn func() (int, error)) (int, error) {
	sp := io.tr.StartIO(p, string(io.inner.Engine()), op)
	p.SetTraceCtx(sp)
	n, err := fn()
	p.SetTraceCtx(nil)
	sp.Finish(p.Now())
	return n, err
}
func (io *tracedIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	return io.traced(p, "read", func() (int, error) { return io.inner.Pread(p, fd, buf, off) })
}
func (io *tracedIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	return io.traced(p, "write", func() (int, error) { return io.inner.Pwrite(p, fd, data, off) })
}
func (io *tracedIO) Fsync(p *sim.Proc, fd int) error {
	_, err := io.traced(p, "fsync", func() (int, error) { return 0, io.inner.Fsync(p, fd) })
	return err
}
func (io *tracedIO) Close(p *sim.Proc, fd int) error { return io.inner.Close(p, fd) }

// syncIO: synchronous kernel path.
type syncIO struct{ pr *kernel.Process }

func (io *syncIO) Engine() Engine { return EngineSync }
func (io *syncIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	return io.pr.Open(p, path, write)
}
func (io *syncIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	return io.pr.Pread(p, fd, buf, off)
}
func (io *syncIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	return io.pr.Pwrite(p, fd, data, off)
}
func (io *syncIO) Fsync(p *sim.Proc, fd int) error { return io.pr.Fsync(p, fd) }
func (io *syncIO) Close(p *sim.Proc, fd int) error { return io.pr.Close(p, fd) }

// aioIO: libaio at queue depth 1 behind the FileIO interface (deeper
// queues use kernel.AioContext directly, as KVell does).
type aioIO struct {
	pr  *kernel.Process
	ctx *kernel.AioContext
}

func (io *aioIO) Engine() Engine { return EngineLibaio }
func (io *aioIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	return io.pr.Open(p, path, write)
}
func (io *aioIO) rw(p *sim.Proc, fd int, buf []byte, off int64, write bool) (int, error) {
	if err := io.ctx.Submit(p, []kernel.AioOp{{FD: fd, Write: write, Off: off, Buf: buf}}); err != nil {
		return 0, err
	}
	res := io.ctx.GetEvents(p, 1, 1)
	if len(res) != 1 {
		return 0, fmt.Errorf("core: libaio reaped %d events", len(res))
	}
	return res[0].N, res[0].Err
}
func (io *aioIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	return io.rw(p, fd, buf, off, false)
}
func (io *aioIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	return io.rw(p, fd, data, off, true)
}
func (io *aioIO) Fsync(p *sim.Proc, fd int) error { return io.pr.Fsync(p, fd) }
func (io *aioIO) Close(p *sim.Proc, fd int) error { return io.pr.Close(p, fd) }

// uringIO: io_uring SQPOLL at queue depth 1.
type uringIO struct {
	pr *kernel.Process
	u  *kernel.Uring
}

func (io *uringIO) Engine() Engine { return EngineUring }
func (io *uringIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	return io.pr.Open(p, path, write)
}
func (io *uringIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	io.u.SubmitRead(p, fd, buf, off)
	r := io.u.Wait(p)
	return r.N, r.Err
}
func (io *uringIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	io.u.SubmitWrite(p, fd, data, off)
	r := io.u.Wait(p)
	return r.N, r.Err
}
func (io *uringIO) Fsync(p *sim.Proc, fd int) error { return io.pr.Fsync(p, fd) }
func (io *uringIO) Close(p *sim.Proc, fd int) error { return io.pr.Close(p, fd) }

// bypassIO: UserLib over the BypassD interface.
type bypassIO struct {
	lib *userlib.Lib
	th  *userlib.Thread
}

func (io *bypassIO) Engine() Engine { return EngineBypassD }
func (io *bypassIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	return io.lib.Open(p, path, write)
}
func (io *bypassIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	return io.th.Pread(p, fd, buf, off)
}
func (io *bypassIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	return io.th.Pwrite(p, fd, data, off)
}
func (io *bypassIO) Fsync(p *sim.Proc, fd int) error { return io.th.Fsync(p, fd) }
func (io *bypassIO) Close(p *sim.Proc, fd int) error { return io.lib.Close(p, fd) }

// BypassThread extracts the UserLib thread from a FileIO when the
// engine is bypassd (Fig. 7 breakdown instrumentation).
func BypassThread(io FileIO) (*userlib.Thread, bool) {
	if t, ok := io.(*tracedIO); ok {
		io = t.inner
	}
	b, ok := io.(*bypassIO)
	if !ok {
		return nil, false
	}
	return b.th, true
}

// spdkIO: raw userspace driver; "files" are registered regions.
type spdkIO struct {
	d       *spdk.Driver
	q       *spdk.Queue
	regions []spdk.Region
}

func (io *spdkIO) Engine() Engine { return EngineSPDK }

// Open resolves a region registered with Driver.CreateFile. SPDK has
// no file system: opening an unregistered name fails.
func (io *spdkIO) Open(p *sim.Proc, path string, write bool) (int, error) {
	r, ok := io.d.Lookup(path)
	if !ok {
		return 0, fmt.Errorf("core: spdk region %q not registered", path)
	}
	io.regions = append(io.regions, r)
	return len(io.regions) - 1, nil
}

func (io *spdkIO) region(fd int) (spdk.Region, error) {
	if fd < 0 || fd >= len(io.regions) {
		return spdk.Region{}, fmt.Errorf("core: bad spdk fd %d", fd)
	}
	return io.regions[fd], nil
}

func (io *spdkIO) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	r, err := io.region(fd)
	if err != nil {
		return 0, err
	}
	return io.q.ReadAt(p, r, buf, off)
}
func (io *spdkIO) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	r, err := io.region(fd)
	if err != nil {
		return 0, err
	}
	return io.q.WriteAt(p, r, data, off)
}
func (io *spdkIO) Fsync(p *sim.Proc, fd int) error { return io.q.Flush(p) }
func (io *spdkIO) Close(p *sim.Proc, fd int) error { return nil }
