// Package fio is the microbenchmark runner behind the paper's Figs.
// 6-11: a flexible I/O tester in the spirit of fio, driving any of
// the compared engines with random reads/writes at configurable block
// sizes, thread counts, and process layouts, and reporting latency
// histograms and throughput.
package fio

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Group is one set of identical workers.
type Group struct {
	Name         string
	Engine       core.Engine
	Write        bool
	BS           int   // block size in bytes (sector aligned)
	Threads      int   //
	OpsPerThread int   // 0 = background: run until all finite groups finish
	FileBytes    int64 // per-worker private file
	// ProcessPerThread gives each worker its own process (and
	// address space), the Fig. 10 multi-process sharing layout.
	ProcessPerThread bool
}

// GroupResult aggregates one group's measurements.
type GroupResult struct {
	Lat      *stats.Histogram
	Ops      int64
	Bytes    int64
	Start    sim.Time
	End      sim.Time
	DeviceNS sim.Time // BypassD-only: submit-to-completion time
	// Phases is the Fig. 5 latency attribution for this group's engine
	// (submit/translate/media/complete); nil unless the machine was
	// traced.
	Phases *trace.Attribution
}

// Elapsed returns the measurement window.
func (r *GroupResult) Elapsed() sim.Time { return r.End - r.Start }

// IOPS returns operations per second.
func (r *GroupResult) IOPS() float64 { return stats.Throughput(r.Ops, r.Elapsed()) }

// Bandwidth returns bytes per second.
func (r *GroupResult) Bandwidth() float64 { return stats.BytesPerSec(r.Bytes, r.Elapsed()) }

// Spec is a complete experiment.
type Spec struct {
	// IOMMU, when set, edits the booted machine's IOMMU configuration
	// before any I/O: the Fig. 8 fixed translation delay, FTE caching
	// and the paging-structure-cache model of the A1 ablations.
	IOMMU func(*iommu.Config)
	Seed  int64
	// Observers are the booted machine's observers. An injector
	// belongs to one machine, so build a fresh one for every Run; with
	// a trace collector, GroupResult.Phases is populated.
	Observers kernel.Observers
}

// SetupFile creates and preallocates one benchmark file for an
// engine: an SPDK region registration for EngineSPDK (the raw driver
// has no file system), a created + fallocated ext4 file otherwise.
// Shared by the fio and tenants harnesses.
func SetupFile(p *sim.Proc, sys *core.System, root *kernel.Process, path string, engine core.Engine, bytes int64) error {
	if engine == core.EngineSPDK {
		d, err := sys.SPDK()
		if err != nil {
			return err
		}
		_, err = d.CreateFile(path, bytes)
		return err
	}
	fd, err := root.Create(p, path, 0o666)
	if err != nil {
		return err
	}
	if err := root.Fallocate(p, fd, bytes); err != nil {
		return err
	}
	return root.Close(p, fd)
}

// filePath is the private file of group gi's worker ti.
func filePath(gi, ti int) string { return fmt.Sprintf("/fio/g%d-w%d", gi, ti) }

// StartThreads spawns n worker procs behind one start gate, so every
// thread's measured work begins after all have set up; name(t) names
// thread t's proc. Thread t first calls open, which returns its body;
// the last thread to open releases the others. A thread whose open
// fails reports the error through fail and never waits, and once any
// thread has failed, the threads leaving the gate skip their bodies.
func StartThreads(sys *core.System, n int, name func(t int) string, fail func(error), open func(w *sim.Proc, t int) (func() error, error)) {
	started, failed := 0, false
	report := func(err error) {
		failed = true
		fail(err)
	}
	gate := sys.Sim.NewCond()
	for t := 0; t < n; t++ {
		sys.Sim.Spawn(name(t), func(w *sim.Proc) {
			body, err := open(w, t)
			started++
			if err != nil {
				report(err)
			}
			if started == n {
				gate.Broadcast()
			} else if err == nil {
				gate.Wait(w)
			}
			if failed {
				return
			}
			if err := body(); err != nil {
				report(err)
			}
		})
	}
}

// Run executes the groups on one freshly booted system.
func Run(spec Spec, groups []Group) (map[string]*GroupResult, error) {
	var need int64 = 64 << 20
	for _, g := range groups {
		need += g.FileBytes * int64(g.Threads)
	}
	capacity := need*3/2 + (64 << 20)
	capacity = (capacity + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	sys, err := core.Boot(core.Config{Capacity: capacity, Observers: spec.Observers})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if spec.IOMMU != nil {
		cfg := sys.M.MMU.Config()
		spec.IOMMU(&cfg)
		sys.M.MMU.SetConfig(cfg)
	}
	results := make(map[string]*GroupResult)
	for _, g := range groups {
		if g.BS <= 0 || g.BS%storage.SectorSize != 0 {
			return nil, fmt.Errorf("fio: group %s block size %d not sector aligned", g.Name, g.BS)
		}
		if g.FileBytes < int64(g.BS) {
			return nil, fmt.Errorf("fio: group %s file smaller than block size", g.Name)
		}
		if g.Engine == core.EngineSPDK && g.ProcessPerThread && g.Threads > 1 {
			// Fig. 10's empty SPDK bars: the userspace driver maps
			// the whole device into one process; a second process
			// cannot attach.
			return nil, fmt.Errorf("fio: spdk cannot be shared across processes")
		}
		results[g.Name] = &GroupResult{Lat: stats.NewHistogram()}
	}

	finite := 0
	for _, g := range groups {
		if g.OpsPerThread > 0 {
			finite += g.Threads
		}
	}
	if finite == 0 {
		return nil, fmt.Errorf("fio: at least one group must have finite ops")
	}

	// thread is one worker: its group, its private file, and the
	// process it runs in.
	type thread struct {
		g    Group
		gi   int
		ti   int
		proc *kernel.Process
	}
	done := 0
	stop := false
	err = sys.M.Drive("fio-setup", 1, func(p *sim.Proc, fail func(error)) error {
		root := sys.NewProcess(ext4.Root)
		if err := root.Mkdir(p, "/fio", 0o777); err != nil {
			return err
		}
		for gi, g := range groups {
			for ti := 0; ti < g.Threads; ti++ {
				if err := SetupFile(p, sys, root, filePath(gi, ti), g.Engine, g.FileBytes); err != nil {
					return err
				}
			}
		}
		if err := root.Sync(p); err != nil {
			return err
		}

		var threads []thread
		for gi, g := range groups {
			shared := sys.NewProcess(ext4.Root)
			for ti := 0; ti < g.Threads; ti++ {
				proc := shared
				if g.ProcessPerThread {
					proc = sys.NewProcess(ext4.Root)
				}
				threads = append(threads, thread{g: g, gi: gi, ti: ti, proc: proc})
			}
		}
		name := func(t int) string { return "fio-" + threads[t].g.Name }
		StartThreads(sys, len(threads), name, fail, func(w *sim.Proc, t int) (func() error, error) {
			th := threads[t]
			g := th.g
			io, err := sys.NewFileIO(w, th.proc, g.Engine)
			if err != nil {
				return nil, err
			}
			fd, err := io.Open(w, filePath(th.gi, th.ti), true)
			if err != nil {
				return nil, err
			}
			return func() error {
				res := results[g.Name]
				rng := rand.New(rand.NewSource(spec.Seed*7919 + int64(th.gi)*104729 + int64(th.ti)))
				// Pooled worker buffer; cleared so written file
				// content matches a fresh zero-filled allocation.
				buf := storage.GetBuf(g.BS)
				defer storage.PutBuf(buf)
				clear(buf)
				blocks := g.FileBytes / int64(g.BS)
				if res.Start == 0 {
					res.Start = w.Now()
				}

				var devBase sim.Time
				if bt, ok := core.BypassThread(io); ok {
					devBase = bt.DeviceNS
				}
				var opErr error
				for op := 0; ; op++ {
					if g.OpsPerThread > 0 {
						if op >= g.OpsPerThread {
							break
						}
					} else if stop {
						break
					}
					off := rng.Int63n(blocks) * int64(g.BS)
					t0 := w.Now()
					if g.Write {
						_, opErr = io.Pwrite(w, fd, buf, off)
					} else {
						_, opErr = io.Pread(w, fd, buf, off)
					}
					if opErr != nil {
						opErr = fmt.Errorf("fio %s worker %d: %w", g.Name, th.ti, opErr)
						break
					}
					res.Lat.Add(w.Now() - t0)
					res.Ops++
					res.Bytes += int64(g.BS)
				}
				if bt, ok := core.BypassThread(io); ok {
					res.DeviceNS += bt.DeviceNS - devBase
				}
				if end := w.Now(); end > res.End {
					res.End = end
				}
				// A failed finite worker still counts, or the
				// background groups would never stop.
				if g.OpsPerThread > 0 {
					done++
					if done == finite {
						stop = true
					}
				}
				return opErr
			}, nil
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr := sys.M.Trace; tr != nil {
		for _, g := range groups {
			if a := tr.Attribution(string(g.Engine)); a != nil {
				results[g.Name].Phases = a
			}
		}
	}
	return results, nil
}
