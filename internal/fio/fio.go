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
	"repro/internal/device"
	"repro/internal/ext4"
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
	StartDelay       sim.Time
}

// GroupResult aggregates one group's measurements.
type GroupResult struct {
	Lat      *stats.Histogram
	Ops      int64
	Bytes    int64
	Start    sim.Time
	End      sim.Time
	UserNS   sim.Time // BypassD-only: library+copy time (Fig. 7)
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
	Capacity int64 // device size; 0 = auto-size from the groups
	// VBAFixedLatency overrides the IOMMU translation delay
	// (Fig. 8); negative keeps the computed model.
	VBAFixedLatency sim.Time
	CacheFTEs       bool
	// PWCEntries sizes the IOMMU's paging-structure cache for ablation
	// sweeps: 0 keeps the default, negative disables the cache.
	PWCEntries int
	// PWCHitWalkLatency / PWCMinTranslation model a PWC hit as a
	// cheaper walk (DESIGN.md §10). Zero keeps the default sentinels
	// (PWC hits charged like full walks — the byte-identity default);
	// negative forces the sentinel explicitly.
	PWCHitWalkLatency sim.Time
	PWCMinTranslation sim.Time
	Seed              int64
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

// Run executes the groups on one freshly booted system.
func Run(spec Spec, groups []Group) (map[string]*GroupResult, error) {
	capacity := spec.Capacity
	if capacity == 0 {
		var need int64 = 64 << 20
		for _, g := range groups {
			need += g.FileBytes * int64(g.Threads)
		}
		capacity = need*3/2 + (64 << 20)
		capacity = (capacity + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	}
	sys, err := core.Boot(core.Config{Capacity: capacity, Observers: spec.Observers})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	sys.M.MMU.SetFixedVBALatency(spec.VBAFixedLatency)
	sys.M.MMU.SetCacheFTEs(spec.CacheFTEs)
	if spec.PWCEntries != 0 || spec.PWCHitWalkLatency != 0 || spec.PWCMinTranslation != 0 {
		cfg := sys.M.MMU.Config()
		entries := cfg.PWCEntries
		if spec.PWCEntries > 0 {
			entries = spec.PWCEntries
		} else if spec.PWCEntries < 0 {
			entries = 0
		}
		hitWalk, minTrans := cfg.PWCHitWalkLatency, cfg.PWCMinTranslation
		if spec.PWCHitWalkLatency != 0 {
			hitWalk = spec.PWCHitWalkLatency
		}
		if spec.PWCMinTranslation != 0 {
			minTrans = spec.PWCMinTranslation
		}
		sys.M.MMU.SetPWCConfig(entries, hitWalk, minTrans)
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

	var setupErr error
	finite := 0
	for _, g := range groups {
		if g.OpsPerThread > 0 {
			finite += g.Threads
		}
	}
	if finite == 0 {
		return nil, fmt.Errorf("fio: at least one group must have finite ops")
	}

	done := 0
	stop := false
	started := 0
	total := 0
	for _, g := range groups {
		total += g.Threads
	}
	startCond := sys.Sim.NewCond()

	sys.Sim.Spawn("fio-setup", func(p *sim.Proc) {
		root := sys.NewProcess(ext4.Root)
		if err := root.Mkdir(p, "/fio", 0o777); err != nil {
			setupErr = err
			return
		}
		for gi, g := range groups {
			for ti := 0; ti < g.Threads; ti++ {
				path := fmt.Sprintf("/fio/g%d-w%d", gi, ti)
				if err := SetupFile(p, sys, root, path, g.Engine, g.FileBytes); err != nil {
					setupErr = err
					return
				}
			}
		}
		if err := root.Sync(p); err != nil {
			setupErr = err
			return
		}

		// Launch the workers.
		for gi, g := range groups {
			g := g
			res := results[g.Name]
			var shared = sys.NewProcess(ext4.Root)
			for ti := 0; ti < g.Threads; ti++ {
				ti := ti
				path := fmt.Sprintf("/fio/g%d-w%d", gi, ti)
				proc := shared
				if g.ProcessPerThread {
					proc = sys.NewProcess(ext4.Root)
				}
				seed := spec.Seed*7919 + int64(gi)*104729 + int64(ti)
				sys.Sim.Spawn("fio-"+g.Name, func(w *sim.Proc) {
					io, err := sys.NewFileIO(w, proc, g.Engine)
					if err != nil {
						setupErr = err
						started++
						if started == total {
							startCond.Broadcast()
						}
						return
					}
					fd, err := io.Open(w, path, true)
					if err != nil {
						setupErr = err
						started++
						if started == total {
							startCond.Broadcast()
						}
						return
					}
					rng := rand.New(rand.NewSource(seed))
					// Pooled worker buffer; cleared so written file
					// content matches a fresh zero-filled allocation.
					buf := device.GetDMABuf(g.BS)
					defer device.PutDMABuf(buf)
					clear(buf)
					blocks := g.FileBytes / int64(g.BS)

					started++
					if started == total {
						startCond.Broadcast()
					} else {
						startCond.Wait(w)
					}
					if setupErr != nil {
						return
					}
					if g.StartDelay > 0 {
						w.Sleep(g.StartDelay)
					}
					if res.Start == 0 {
						res.Start = w.Now()
					}

					var devBase, userBase sim.Time
					if th, ok := core.BypassThread(io); ok {
						devBase, userBase = th.DeviceNS, th.UserNS
					}
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
						var err error
						if g.Write {
							_, err = io.Pwrite(w, fd, buf, off)
						} else {
							_, err = io.Pread(w, fd, buf, off)
						}
						if err != nil {
							setupErr = fmt.Errorf("fio %s worker %d: %w", g.Name, ti, err)
							break
						}
						res.Lat.Add(w.Now() - t0)
						res.Ops++
						res.Bytes += int64(g.BS)
					}
					if th, ok := core.BypassThread(io); ok {
						res.DeviceNS += th.DeviceNS - devBase
						res.UserNS += th.UserNS - userBase
					}
					if end := w.Now(); end > res.End {
						res.End = end
					}
					if g.OpsPerThread > 0 {
						done++
						if done == finite {
							stop = true
						}
					}
				})
			}
		}
	})
	sys.Sim.Run()
	if setupErr != nil {
		return nil, setupErr
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
