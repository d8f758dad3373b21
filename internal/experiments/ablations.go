package experiments

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/userlib"
)

func init() {
	registerCells("A1", "Ablation: caching FTEs in the IOTLB (paper §4.3, Fig. 8's 350ns point)", cellsA1)
	registerCells("A2", "Ablation: per-thread vs shared queue pairs (paper §6.3)", cellsA2)
	registerCells("A3", "Ablation: kernel appends vs §5.1 optimized appends", cellsA3)
	registerCells("A4", "Ablation: overlapping write translation with data transfer (paper §4.3)", cellsA4)
	register("A5", "Extension: non-blocking writes (paper §5.1)", runA5)
	registerCells("A6", "Extension: extent-table IOMMU walker vs page-table FTEs (paper §5.1)", cellsA6)
}

func cellsA1(o Options) *cellReport {
	ops := 200
	if o.Quick {
		ops = 60
	}
	cols := plain("latency (µs)", "bandwidth (GB/s)")
	tb := &cellTable{title: "A1: 4KB random read with and without FTE caching", keys: []string{"FTE caching"}, cols: cols,
		cells: []Cell{
			a1Cell(o, "off (paper default)", fio.Spec{VBAFixedLatency: -1}, ops),
			a1Cell(o, "on", fio.Spec{VBAFixedLatency: -1, CacheFTEs: true}, ops),
		}}
	// Paging-structure-cache sweep: the same workload with the PWC
	// disabled, at the byte-identity default (hits priced like full
	// walks), and with hits modeled as a single leaf fetch (~183ns/3
	// levels saved off the walk and off the 550ns floor).
	tp := &cellTable{title: "A1b: 4KB random read vs paging-structure cache model", keys: []string{"PWC"}, cols: cols,
		cells: []Cell{
			a1Cell(o, "disabled", fio.Spec{VBAFixedLatency: -1, PWCEntries: -1}, ops),
			a1Cell(o, "32 entries, hits priced as full walks (default)", fio.Spec{VBAFixedLatency: -1}, ops),
			a1Cell(o, "32 entries, 61ns hit walk / 430ns floor", fio.Spec{
				VBAFixedLatency:   -1,
				PWCHitWalkLatency: 61 * sim.Nanosecond,
				PWCMinTranslation: 430 * sim.Nanosecond,
			}, ops),
		}}
	return &cellReport{title: "IOTLB FTE caching", tables: []*cellTable{tb, tp},
		notes: []string{
			"difference is small: caching FTEs in the IOTLB is not critical (paper §6.3)",
			"default PWC pricing reproduces the pre-PWC figures byte-for-byte (DESIGN.md §10)",
		}}
}

// a1Cell is one A1 row: 4KB random reads on BypassD under spec. A 1 MiB
// working set fits the 256-entry IOTLB, giving FTE caching its best
// case.
func a1Cell(o Options, label string, spec fio.Spec, ops int) Cell {
	return Cell{key: []string{label}, run: func(seed int64) ([]float64, error) {
		spec := spec
		spec.Seed, spec.Observers = seed, o.at(seed).observers()
		res, err := fio.Run(spec, []fio.Group{{
			Name: "m", Engine: core.EngineBypassD, BS: 4096, Threads: 1,
			OpsPerThread: ops, FileBytes: 1 << 20,
		}})
		if err != nil {
			return nil, err
		}
		return []float64{res["m"].Lat.Mean().Micros(), res["m"].Bandwidth() / 1e9}, nil
	}}
}

// cellsA2 compares per-thread queues with one shared, locked queue at
// 8 threads.
func cellsA2(o Options) *cellReport {
	ops := 150
	if o.Quick {
		ops = 50
	}
	const threads = 8
	tb := &cellTable{
		title: "A2: 4KB reads, 8 threads: per-thread vs shared queue pairs",
		keys:  []string{"queues"},
		cols:  plain("latency (µs)", "IOPS (K)"),
	}
	for _, v := range []struct {
		label  string
		shared bool
	}{{"per-thread (paper design)", false}, {"one shared + lock", true}} {
		tb.cells = append(tb.cells, Cell{key: []string{v.label}, run: func(seed int64) ([]float64, error) {
			lat, iops, err := runSharedQueues(o.at(seed), v.shared, threads, ops)
			if err != nil {
				return nil, err
			}
			return []float64{lat.Micros(), iops / 1000}, nil
		}})
	}
	return &cellReport{title: "queue-per-thread ablation", tables: []*cellTable{tb},
		notes: []string{"sharing queues serializes the data path and inflates latency (paper §6.3 scaling rationale)"}}
}

func runSharedQueues(o Options, shared bool, threads, ops int) (sim.Time, float64, error) {
	sys, err := o.boot(1 << 30)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()

	hist := stats.NewHistogram()
	var runErr error
	var start, end sim.Time
	total := 0
	started := 0
	barrier := sys.Sim.NewCond()

	sys.Sim.Spawn("a2", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/a2", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if err := pr.Fallocate(p, fd, 64<<20); err != nil {
			runErr = err
			return
		}
		if err := pr.Fsync(p, fd); err != nil {
			runErr = err
			return
		}
		if err := pr.Close(p, fd); err != nil {
			runErr = err
			return
		}

		worker := sys.NewProcess(ext4.Root)
		cfg := userlib.DefaultConfig()
		cfg.ShareQueues = shared
		lib := userlib.New(worker, cfg)
		for t := 0; t < threads; t++ {
			t := t
			sys.Sim.Spawn("a2-worker", func(w *sim.Proc) {
				th, err := lib.NewThread(w)
				var lfd int
				if err == nil {
					lfd, err = lib.Open(w, "/a2", false)
				}
				started++
				if err != nil {
					runErr = err
					if started == threads {
						barrier.Broadcast()
					}
					return
				}
				if started == threads {
					barrier.Broadcast()
				} else {
					barrier.Wait(w)
				}
				if runErr != nil {
					return
				}
				if start == 0 {
					start = w.Now()
				}
				rng := newXorshift(uint64(t + 1))
				buf := make([]byte, 4096)
				for i := 0; i < ops; i++ {
					off := int64(rng.next()%(64<<20/4096)) * 4096
					t0 := w.Now()
					if _, err := th.Pread(w, lfd, buf, off); err != nil {
						runErr = err
						return
					}
					hist.Add(w.Now() - t0)
					total++
				}
				if e := w.Now(); e > end {
					end = e
				}
			})
		}
	})
	sys.Sim.Run()
	if runErr != nil {
		return 0, 0, runErr
	}
	return hist.Mean(), stats.Throughput(int64(total), end-start), nil
}

// cellsA3 compares the three append strategies: kernel appends (paper
// default), §5.1's fallocate+overwrite optimization, and the SplitFS
// relink approach the paper names as the more intrusive alternative.
func cellsA3(o Options) *cellReport {
	appends := 400
	if o.Quick {
		appends = 100
	}
	tb := &cellTable{title: "A3: 4KB append latency", keys: []string{"strategy"}, cols: plain("mean latency (µs)")}
	for _, v := range []struct{ strategy, label string }{
		{"kernel", "kernel appends (paper default)"},
		{"optimized", "fallocate + userspace overwrites (§5.1)"},
		{"relink", "staging file + relink (SplitFS-style, §5.1)"},
	} {
		tb.cells = append(tb.cells, Cell{key: []string{v.label}, run: func(seed int64) ([]float64, error) {
			lat, err := runA3(o.at(seed), v.strategy, appends)
			return []float64{lat.Micros()}, err
		}})
	}
	return &cellReport{title: "append strategies", tables: []*cellTable{tb},
		notes: []string{"preallocation turns most appends into direct userspace overwrites"}}
}

// runA3 times appends of one strategy.
func runA3(o Options, strategy string, appends int) (sim.Time, error) {
	sys, err := o.boot(1 << 30)
	if err != nil {
		return 0, err
	}
	hist := stats.NewHistogram()
	var runErr error
	sys.Sim.Spawn("a3", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd0, err := pr.Create(p, "/log", 0o666)
		if err != nil {
			runErr = err
			return
		}
		_ = pr.Close(p, fd0)
		lib := sys.Lib(pr)
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		fd, err := lib.Open(p, "/log", true)
		if err != nil {
			runErr = err
			return
		}
		var appender *userlib.StagingAppender
		if strategy == "relink" {
			appender, err = lib.NewStagingAppender(p, th, fd, "/log.stg", 64*4096)
			if err != nil {
				runErr = err
				return
			}
		}
		rec := make([]byte, 4096)
		for i := 0; i < appends; i++ {
			t0 := p.Now()
			switch strategy {
			case "optimized":
				_, err = th.OptimizedAppend(p, fd, rec, 4<<20)
			case "relink":
				_, err = appender.Append(p, rec)
			default:
				_, err = th.Write(p, fd, rec)
			}
			if err != nil {
				runErr = err
				return
			}
			hist.Add(p.Now() - t0)
		}
	})
	sys.Sim.Run()
	sys.Close()
	if runErr != nil {
		return 0, runErr
	}
	return hist.Mean(), nil
}

// cellsA4 toggles the device's write-translation overlap.
func cellsA4(o Options) *cellReport {
	ops := 200
	if o.Quick {
		ops = 60
	}
	tb := &cellTable{
		title: "A4: 4KB overwrite latency vs write-translation handling",
		keys:  []string{"write translation"},
		cols:  plain("latency (µs)"),
	}
	for _, v := range []struct {
		label     string
		serialize bool
	}{{"overlapped with transfer (paper design)", false}, {"serialized before transfer", true}} {
		tb.cells = append(tb.cells, Cell{key: []string{v.label}, run: func(seed int64) ([]float64, error) {
			lat, err := runA4Once(o.at(seed), v.serialize, ops)
			return []float64{lat.Micros()}, err
		}})
	}
	return &cellReport{title: "write translation overlap", tables: []*cellTable{tb},
		notes: []string{"overlap hides the full VBA translation on the write path (paper §4.3)"}}
}

func runA4Once(o Options, serialize bool, ops int) (sim.Time, error) {
	s := sim.New()
	dcfg := device.OptaneP5800X(1 << 30)
	dcfg.SerializeWriteTranslation = serialize
	m, err := kernel.NewMachineN(s, kernel.DefaultConfig(), []device.Config{dcfg}, nil, o.observers())
	if err != nil {
		return 0, err
	}
	defer s.Shutdown()
	hist := stats.NewHistogram()
	var runErr error
	s.Spawn("a4", func(p *sim.Proc) {
		pr := m.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/a4", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if err := pr.Fallocate(p, fd, 16<<20); err != nil {
			runErr = err
			return
		}
		if err := pr.Fsync(p, fd); err != nil {
			runErr = err
			return
		}
		if err := pr.Close(p, fd); err != nil {
			runErr = err
			return
		}
		lib := userlib.New(pr, userlib.DefaultConfig())
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		lfd, err := lib.Open(p, "/a4", true)
		if err != nil {
			runErr = err
			return
		}
		buf := make([]byte, 4096)
		rng := newXorshift(uint64(o.Seed) + 5)
		for i := 0; i < ops; i++ {
			off := int64(rng.next()%(16<<20/4096)) * 4096
			t0 := p.Now()
			if _, err := th.Pwrite(p, lfd, buf, off); err != nil {
				runErr = err
				return
			}
			hist.Add(p.Now() - t0)
		}
	})
	s.Run()
	if runErr != nil {
		return 0, runErr
	}
	return hist.Mean(), nil
}

// runA5 measures the §5.1 non-blocking write enhancement: a single
// thread streaming 4 KiB overwrites synchronously vs. at queue depth
// 16 with read-side range consistency.
func runA5(o Options) (*Report, error) {
	writes := 256
	if o.Quick {
		writes = 96
	}
	sys, err := o.boot(1 << 30)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var syncThr, asyncThr float64
	var runErr error
	sys.Sim.Spawn("a5", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd0, err := pr.Create(p, "/a5", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if err := pr.Fallocate(p, fd0, int64(writes)*4096); err != nil {
			runErr = err
			return
		}
		_ = pr.Fsync(p, fd0)
		_ = pr.Close(p, fd0)

		lib := sys.Lib(pr)
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		fd, err := lib.Open(p, "/a5", true)
		if err != nil {
			runErr = err
			return
		}
		buf := make([]byte, 4096)

		start := p.Now()
		for i := 0; i < writes; i++ {
			if _, err := th.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				runErr = err
				return
			}
		}
		syncThr = float64(writes) / (p.Now() - start).Seconds()

		w, err := lib.NewAsyncWriter(p, 16, 4096)
		if err != nil {
			runErr = err
			return
		}
		start = p.Now()
		for i := 0; i < writes; i++ {
			if _, err := w.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				runErr = err
				return
			}
		}
		if err := w.Drain(p); err != nil {
			runErr = err
			return
		}
		asyncThr = float64(writes) / (p.Now() - start).Seconds()
	})
	sys.Sim.Run()
	if runErr != nil {
		return nil, runErr
	}
	tb := stats.NewTable("A5: 4KB overwrite throughput, 1 thread",
		"write mode", "Kops/s")
	tb.AddRow("synchronous (paper default)", syncThr/1000)
	tb.AddRow("non-blocking, depth 16 (§5.1)", asyncThr/1000)
	return &Report{ID: "A5", Title: "non-blocking writes", Tables: []*stats.Table{tb},
		Notes: []string{"reads overlapping buffered writes wait for retirement (consistency rule)"}}, nil
}

// cellsA6 contrasts the two fmap translation structures on a large
// file: setup cost and per-read latency.
func cellsA6(o Options) *cellReport {
	size := int64(256 << 20)
	reads := 150
	if o.Quick {
		size = 64 << 20
		reads = 60
	}
	tb := &cellTable{
		title: "A6: translation structure for a large file",
		keys:  []string{"structure"},
		cols:  plain("cold fmap (µs)", "4KB read latency (µs)"),
	}
	for _, v := range []struct {
		label  string
		extent bool
	}{{"page-table FTEs (paper design)", false}, {"IOMMU extent table (§5.1 alternative)", true}} {
		tb.cells = append(tb.cells, Cell{key: []string{v.label}, run: func(seed int64) ([]float64, error) {
			return runA6(o.at(seed), v.extent, size, reads)
		}})
	}
	return &cellReport{title: "translation structures", tables: []*cellTable{tb},
		notes: []string{"extent tables make fmap O(extents); reads stay within ~100ns of the FTE walk"}}
}

// runA6 times a cold fmap of a size-byte file through one translation
// structure, then the mean of reads random 4KB reads.
func runA6(o Options, extent bool, size int64, reads int) ([]float64, error) {
	sys, err := o.boot(size*2 + (256 << 20))
	if err != nil {
		return nil, err
	}
	var fmapT sim.Time
	var lat sim.Time
	var runErr error
	sys.Sim.Spawn("a6", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd0, err := pr.Create(p, "/a6", 0o666)
		if err != nil {
			runErr = err
			return
		}
		if err := pr.Fallocate(p, fd0, size); err != nil {
			runErr = err
			return
		}
		_ = pr.Fsync(p, fd0)
		_ = pr.Close(p, fd0)
		in, err := sys.M.FS.Lookup(p, "/a6", ext4.Root)
		if err != nil {
			runErr = err
			return
		}
		in.DropFileTable()

		cfg := userlib.DefaultConfig()
		cfg.ExtentFmap = extent
		lib := userlib.New(sys.NewProcess(ext4.Root), cfg)
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		fd, err := lib.Open(p, "/a6", false)
		if err != nil {
			runErr = err
			return
		}
		fmapT = p.Now() - start

		buf := make([]byte, 4096)
		rng := newXorshift(uint64(o.Seed) + 11)
		start = p.Now()
		for i := 0; i < reads; i++ {
			off := int64(rng.next()%uint64(size/4096)) * 4096
			if _, err := th.Pread(p, fd, buf, off); err != nil {
				runErr = err
				return
			}
		}
		lat = (p.Now() - start) / sim.Time(reads)
	})
	sys.Sim.Run()
	sys.Close()
	if runErr != nil {
		return nil, runErr
	}
	return []float64{fmapT.Micros(), lat.Micros()}, nil
}
