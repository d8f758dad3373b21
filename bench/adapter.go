package main

// Every call from the benchmark into the program lives in this file:
// booting a system, the per-thread FileIO calls of the closed-loop
// workloads, the frontend and tenants runs, the trace and metrics
// activation calls, and the counters read after a run. The rest of the
// benchmark sees only the types declared here, so a change to the
// program's run API edits this one file.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/frontend"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tenants"
	"repro/internal/trace"
)

// fillChunk is the write size of the setup fill: the UserLib DMA
// buffer (1 MiB), so each fill call is one direct-path command.
const fillChunk = 1 << 20

// machine is one booted single-SSD system: a filled data file and one
// BypassD FileIO per simulated thread, all threads in one process (one
// UserLib instance, one queue pair per thread).
type machine struct {
	sys     *core.System
	root    *kernel.Process // creates, unlinks and syncs files over the kernel interface
	pr      *kernel.Process // the application process the threads belong to
	threads []*thread
}

// thread is one simulated application thread. Its FileIO is created in
// setup and driven by one proc per traffic pass (never two at once).
type thread struct {
	m       *machine
	p       *sim.Proc
	io      core.FileIO
	data    int    // data-file descriptor
	log     int    // log descriptor; -1 without a log
	logPath string // "" without a log
}

// hasLog reports whether the thread appends to a log.
func (th *thread) hasLog() bool { return th.logPath != "" }

// boot starts a fresh single-SSD system of the given capacity.
func boot(capacity int64) (*machine, error) {
	sys, err := core.New(capacity)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	return &machine{sys: sys, root: sys.NewProcess(ext4.Root), pr: sys.NewProcess(ext4.Root)}, nil
}

// close shuts the system down and returns its store to the pool.
func (m *machine) close() { m.sys.Close() }

// drive runs fn on a fresh proc and the simulation until it drains.
func (m *machine) drive(name string, fn func(p *sim.Proc) error) error {
	var err error
	m.sys.Sim.Spawn(name, func(p *sim.Proc) { err = fn(p) })
	m.sys.Sim.Run()
	return err
}

// fill creates path with size bytes and writes every block through a
// BypassD FileIO, block(b, buf) producing the contents of 4 KiB block b.
func (m *machine) fill(path string, size int64, block func(b int64, buf []byte)) error {
	return m.drive("bench-fill", func(p *sim.Proc) error {
		fd, err := m.root.Create(p, path, 0o666)
		if err != nil {
			return err
		}
		if err := m.root.Fallocate(p, fd, size); err != nil {
			return err
		}
		if err := m.root.Close(p, fd); err != nil {
			return err
		}
		io, err := m.sys.NewFileIO(p, m.pr, core.EngineBypassD)
		if err != nil {
			return err
		}
		if fd, err = io.Open(p, path, true); err != nil {
			return err
		}
		buf := make([]byte, fillChunk)
		for off := int64(0); off < size; off += fillChunk {
			chunk := buf[:min(fillChunk, size-off)]
			for i := int64(0); i < int64(len(chunk)); i += blockSize {
				block((off+i)/blockSize, chunk[i:i+blockSize])
			}
			if _, err := io.Pwrite(p, fd, chunk, off); err != nil {
				return fmt.Errorf("fill at %d: %w", off, err)
			}
		}
		if err := io.Close(p, fd); err != nil {
			return err
		}
		return m.root.Sync(p)
	})
}

// open gives the machine n threads, each with its own FileIO (queue
// pair and DMA buffer) and the data file open for writing when write is
// set; with log set, thread 0 also gets a log file. warm(t) names the
// offset of thread t's warm-up read.
func (m *machine) open(path string, n int, write, log bool, warm func(t int) int64) error {
	for t := 0; t < n; t++ {
		th := &thread{m: m, log: -1}
		if log && t == 0 {
			th.logPath = "/log"
		}
		m.threads = append(m.threads, th)
	}
	return m.drive("bench-open", func(p *sim.Proc) error {
		buf := make([]byte, blockSize)
		for t, th := range m.threads {
			io, err := m.sys.NewFileIO(p, m.pr, core.EngineBypassD)
			if err != nil {
				return err
			}
			th.io, th.p = io, p
			if th.data, err = io.Open(p, path, write); err != nil {
				return err
			}
			if th.logPath != "" {
				if err := th.createLog(); err != nil {
					return err
				}
			}
			if _, err := io.Pread(p, th.data, buf, warm(t)); err != nil {
				return fmt.Errorf("warm read: %w", err)
			}
		}
		return nil
	})
}

// pass runs body once per thread, each on its own proc, and drives the
// simulation until every thread has returned. It reports the first
// error and the number of simulator events dispatched.
func (m *machine) pass(body func(t int, th *thread) error) (uint64, error) {
	events := m.sys.Sim.Processed()
	var first error
	for t, th := range m.threads {
		t, th := t, th
		m.sys.Sim.Spawn(fmt.Sprintf("bench-t%d", t), func(p *sim.Proc) {
			th.p = p
			if err := body(t, th); err != nil && first == nil {
				first = fmt.Errorf("thread %d: %w", t, err)
			}
		})
	}
	m.sys.Sim.Run()
	return m.sys.Sim.Processed() - events, first
}

// now is the thread's virtual time in nanoseconds.
func (th *thread) now() int64 { return int64(th.p.Now()) }

// read reads len(buf) bytes of the data file at off.
func (th *thread) read(buf []byte, off int64) error {
	n, err := th.io.Pread(th.p, th.data, buf, off)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short read at %d: %d bytes", off, n)
	}
	return err
}

// write overwrites len(data) bytes of the data file at off.
func (th *thread) write(data []byte, off int64) error {
	n, err := th.io.Pwrite(th.p, th.data, data, off)
	if err == nil && n != len(data) {
		err = fmt.Errorf("short write at %d: %d bytes", off, n)
	}
	return err
}

// appendLog writes data at off, the log's current end.
func (th *thread) appendLog(data []byte, off int64) error {
	n, err := th.io.Pwrite(th.p, th.log, data, off)
	if err == nil && n != len(data) {
		err = fmt.Errorf("short append at %d: %d bytes", off, n)
	}
	return err
}

// fsyncLog makes the log durable.
func (th *thread) fsyncLog() error { return th.io.Fsync(th.p, th.log) }

// rotateLog unlinks the log and starts an empty one in its place.
func (th *thread) rotateLog() error {
	if err := th.io.Close(th.p, th.log); err != nil {
		return err
	}
	if err := th.m.root.Unlink(th.p, th.logPath); err != nil {
		return err
	}
	return th.createLog()
}

// createLog creates the thread's empty log over the kernel interface
// and opens it through the thread's FileIO.
func (th *thread) createLog() error {
	fd, err := th.m.root.Create(th.p, th.logPath, 0o666)
	if err != nil {
		return err
	}
	if err := th.m.root.Close(th.p, fd); err != nil {
		return err
	}
	th.log, err = th.io.Open(th.p, th.logPath, true)
	return err
}

// latency summarises a virtual-latency population.
type latency struct {
	count          int64
	mean           float64 // ns
	p50, p99, p999 int64   // ns, lower bound of the histogram bucket
}

func summarize(h *stats.Histogram) latency {
	s := h.Summarize()
	return latency{count: s.Count, mean: float64(s.Mean), p50: int64(s.P50), p99: int64(s.P99), p999: int64(s.P999)}
}

// openLoop is what the benchmark reads from one frontend or tenants
// run: request accounting, the latency of the population the workload
// reports on, and the run's simulator event count. Every field is a
// function of the seed alone.
type openLoop struct {
	offered, completed     int64
	shedArrival, shedQueue int64
	sloOffered, sloMet     int64 // requests the SLO is counted against, and those served within it
	window                 int64 // virtual ns, first arrival to last completion
	lat                    latency
	events                 uint64

	// frontend only
	peakBacklog, usersServed, users int64

	// tenants only
	victimPeakBacklog   int64
	hogBytes, hogWindow int64    // hog bytes moved over the hogs' virtual window (ns)
	short               []string // tenants that completed fewer ops than configured
}

// runFleet runs the fleet workload's service tier once on a fresh
// system: users over 8 workers on 2 SSDs, CoDel admission at 1.5x the
// pool's calibrated capacity, the kvell backend with a 10% update mix,
// and the traffic phase on workers epoch workers.
func runFleet(seed int64, users uint64, requests, workers int) (openLoop, error) {
	fl := frontend.ServiceFleet(frontend.AdmitCoDel, 1.5, 2, 8, users, requests)
	fl.WriteFrac = 0.1
	res, events, err := frontend.RunCountedWorkers(seed, fl, workers)
	if err != nil {
		return openLoop{}, err
	}
	start, end := res.Window()
	out := openLoop{
		offered:     res.Offered(),
		completed:   res.Completed(),
		sloOffered:  res.Offered(),
		window:      int64(end - start),
		lat:         summarize(res.Sojourn()),
		events:      events,
		usersServed: res.UsersServed(),
		users:       int64(res.Fleet.Users),
	}
	for _, d := range res.Devices {
		out.peakBacklog = max(out.peakBacklog, int64(d.PeakBacklog))
		out.sloMet += d.SLOMet
		out.shedArrival += d.ShedArrival
		out.shedQueue += d.ShedQueue
	}
	return out, nil
}

// runScaleout runs the scaleout workload's tenants once on a fresh
// 4-SSD system: per device one 4 KiB victim (20K ops/s, QD2, 30 µs
// SLO, wrr weight 16) and one 64 KiB hog (60K ops/s, QD4) under the wrr
// arbiter, with the traffic phase on workers epoch workers. Latency and
// SLO figures are the victims'.
func runScaleout(seed int64, victimOps, hogOps, workers int) (openLoop, error) {
	sc := tenants.ScaleOut(4, victimOps, hogOps)
	res, events, err := tenants.RunCountedWorkers(seed, sc, workers)
	if err != nil {
		return openLoop{}, err
	}
	out := openLoop{events: events}
	victims := stats.NewHistogram()
	var start, end, hogStart, hogEnd sim.Time
	for i, r := range res {
		t := r.Tenant
		out.offered += int64(t.Ops)
		out.completed += r.Ops
		if r.Ops != int64(t.Ops) {
			out.short = append(out.short, fmt.Sprintf("%s %d/%d", t.Name, r.Ops, t.Ops))
		}
		if i == 0 || r.Start < start {
			start = r.Start
		}
		end = max(end, r.End)
		if t.SLO > 0 {
			victims.Merge(r.Sojourn)
			out.sloOffered += int64(t.Ops)
			out.sloMet += r.Compliant
			out.victimPeakBacklog = max(out.victimPeakBacklog, int64(r.PeakBacklog))
			continue
		}
		out.hogBytes += r.Bytes
		if hogStart == 0 || r.Start < hogStart {
			hogStart = r.Start
		}
		hogEnd = max(hogEnd, r.End)
	}
	out.window = int64(end - start)
	out.hogWindow = int64(hogEnd - hogStart)
	out.lat = summarize(victims)
	return out, nil
}

// observe arms the trace and metrics planes for systems booted from
// now on; the returned stop disarms both.
func observe() (stop func()) {
	trace.Activate(trace.Options{})
	metrics.Activate()
	return func() {
		trace.Deactivate()
		metrics.Deactivate()
	}
}

// counters is a snapshot of the active metrics registry: counter
// series by key, plus the io_latency_ns histograms' counts and sums.
type counters struct {
	c      map[string]int64
	latN   int64
	latSum int64
}

// snapshot reads the active registry (empty when metrics are off).
func snapshot() counters {
	out := counters{c: map[string]int64{}}
	r := metrics.Active()
	if r == nil {
		return out
	}
	s := r.Snapshot()
	for k, v := range s.Counters {
		out.c[k] = v
	}
	for k, h := range s.Histograms {
		if strings.HasPrefix(k, "io_latency_ns") {
			out.latN += h.Count
			out.latSum += h.Count * h.MeanNS
		}
	}
	return out
}

// sum adds every counter series of name whose labels contain all of
// the given `k="v"` fragments.
func (c counters) sum(name string, labels ...string) int64 {
	var n int64
	for k, v := range c.c {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			n += v
		}
	}
	return n
}

// minus is the per-series difference c - base (a phase's increments).
func (c counters) minus(base counters) counters {
	out := counters{c: make(map[string]int64, len(c.c)), latN: c.latN - base.latN, latSum: c.latSum - base.latSum}
	for k, v := range c.c {
		out.c[k] = v - base.c[k]
	}
	return out
}

// layerCounts are the registry series the per-layer metrics are built
// from, read from a snapshot (usually a traffic phase's increments).
type layerCounts struct {
	ioOps   int64
	phaseNS [4]int64 // Fig. 5 phases: submit, translate, media, complete
	latN    int64    // io_latency_ns samples and their summed ns
	latSum  int64

	deviceCmds, deviceWriteBytes, deviceFlushes int64

	pwcHits, pwcMisses, iotlbHits, iotlbMisses, walks int64

	libDirect, libKernel, libRetries, libRefmaps int64

	ext4Commits, blockRetries int64
}

func (c counters) layers() layerCounts {
	lc := layerCounts{
		ioOps:            c.sum("io_ops_total"),
		latN:             c.latN,
		latSum:           c.latSum,
		deviceCmds:       c.sum("device_ops_total"),
		deviceWriteBytes: c.sum("device_bytes_total", `dir="write"`),
		deviceFlushes:    c.sum("device_ops_total", `op="flush"`),
		pwcHits:          c.sum("iommu_pwc_total", `event="hit"`),
		pwcMisses:        c.sum("iommu_pwc_total", `event="miss"`),
		iotlbHits:        c.sum("iommu_iotlb_total", `event="hit"`),
		iotlbMisses:      c.sum("iommu_iotlb_total", `event="miss"`),
		walks:            c.sum("iommu_walks_total"),
		libDirect:        c.sum("userlib_ops_total", `path="direct"`),
		libKernel:        c.sum("userlib_ops_total", `path="kernel"`),
		libRetries:       c.sum("userlib_retries_total"),
		libRefmaps:       c.sum("userlib_refmaps_total"),
		ext4Commits:      c.sum("ext4_commits_total"),
		blockRetries:     c.sum("kernel_block_retries_total"),
	}
	for i, ph := range trace.PhaseNames {
		lc.phaseNS[i] = c.sum("io_ns_total", `phase="`+ph+`"`)
	}
	return lc
}
