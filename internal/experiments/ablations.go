package experiments

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/fio"
	"repro/internal/iommu"
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
			a1Cell(o, "off (paper default)", nil, ops),
			a1Cell(o, "on", func(c *iommu.Config) { c.CacheFTEs = true }, ops),
		}}
	// Paging-structure-cache sweep: the same workload with the PWC
	// disabled, at the byte-identity default (hits priced like full
	// walks), and with hits modeled as a single leaf fetch (~183ns/3
	// levels saved off the walk and off the 550ns floor).
	tp := &cellTable{title: "A1b: 4KB random read vs paging-structure cache model", keys: []string{"PWC"}, cols: cols,
		cells: []Cell{
			a1Cell(o, "disabled", func(c *iommu.Config) { c.PWCEntries = 0 }, ops),
			a1Cell(o, "32 entries, hits priced as full walks (default)", nil, ops),
			a1Cell(o, "32 entries, 61ns hit walk / 430ns floor", func(c *iommu.Config) {
				c.PWCHitWalkLatency, c.PWCMinTranslation = 61*sim.Nanosecond, 430*sim.Nanosecond
			}, ops),
		}}
	return &cellReport{title: "IOTLB FTE caching", tables: []*cellTable{tb, tp},
		notes: []string{
			"difference is small: caching FTEs in the IOTLB is not critical (paper §6.3)",
			"default PWC pricing reproduces the pre-PWC figures byte-for-byte (DESIGN.md §10)",
		}}
}

// a1Cell is one A1 row: 4KB random reads on BypassD with the IOMMU
// configuration edited by mmu. A 1 MiB working set fits the 256-entry
// IOTLB, giving FTE caching its best case.
func a1Cell(o Options, label string, mmu func(*iommu.Config), ops int) Cell {
	return Cell{key: []string{label}, run: func(seed int64) ([]float64, error) {
		spec := fio.Spec{IOMMU: mmu, Seed: seed, Observers: o.at(seed).observers()}
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
	var start, end sim.Time
	total := 0
	err = sys.M.Drive("a2", 1, func(p *sim.Proc, fail func(error)) error {
		if err := mkfile(p, sys.NewProcess(ext4.Root), "/a2", 64<<20); err != nil {
			return err
		}

		worker := sys.NewProcess(ext4.Root)
		cfg := userlib.DefaultConfig()
		cfg.ShareQueues = shared
		lib := userlib.New(worker, cfg)
		fio.StartThreads(sys, threads, func(int) string { return "a2-worker" }, fail, func(w *sim.Proc, t int) (func() error, error) {
			th, err := lib.NewThread(w)
			var lfd int
			if err == nil {
				lfd, err = lib.Open(w, "/a2", false)
			}
			return func() error {
				if start == 0 {
					start = w.Now()
				}
				rng := newXorshift(uint64(t + 1))
				buf := make([]byte, 4096)
				for i := 0; i < ops; i++ {
					off := int64(rng.next()%(64<<20/4096)) * 4096
					t0 := w.Now()
					if _, err := th.Pread(w, lfd, buf, off); err != nil {
						return err
					}
					hist.Add(w.Now() - t0)
					total++
				}
				if e := w.Now(); e > end {
					end = e
				}
				return nil
			}, err
		})
		return nil
	})
	if err != nil {
		return 0, 0, err
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
	defer sys.Close()
	hist := stats.NewHistogram()
	err = sys.M.Drive("a3", 1, func(p *sim.Proc, _ func(error)) error {
		pr := sys.NewProcess(ext4.Root)
		fd0, err := pr.Create(p, "/log", 0o666)
		if err != nil {
			return err
		}
		_ = pr.Close(p, fd0)
		lib := sys.Lib(pr)
		th, err := lib.NewThread(p)
		if err != nil {
			return err
		}
		fd, err := lib.Open(p, "/log", true)
		if err != nil {
			return err
		}
		var appender *userlib.StagingAppender
		if strategy == "relink" {
			appender, err = lib.NewStagingAppender(p, th, fd, "/log.stg", 64*4096)
			if err != nil {
				return err
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
				return err
			}
			hist.Add(p.Now() - t0)
		}
		return nil
	})
	if err != nil {
		return 0, err
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
	err = m.Drive("a4", 1, func(p *sim.Proc, _ func(error)) error {
		pr := m.NewProcess(ext4.Root)
		if err := mkfile(p, pr, "/a4", 16<<20); err != nil {
			return err
		}
		lib := userlib.New(pr, userlib.DefaultConfig())
		th, err := lib.NewThread(p)
		if err != nil {
			return err
		}
		lfd, err := lib.Open(p, "/a4", true)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		rng := newXorshift(uint64(o.Seed) + 5)
		for i := 0; i < ops; i++ {
			off := int64(rng.next()%(16<<20/4096)) * 4096
			t0 := p.Now()
			if _, err := th.Pwrite(p, lfd, buf, off); err != nil {
				return err
			}
			hist.Add(p.Now() - t0)
		}
		return nil
	})
	if err != nil {
		return 0, err
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
	err = sys.M.Drive("a5", 1, func(p *sim.Proc, _ func(error)) error {
		pr := sys.NewProcess(ext4.Root)
		if err := mkfile(p, pr, "/a5", int64(writes)*4096); err != nil {
			return err
		}

		lib := sys.Lib(pr)
		th, err := lib.NewThread(p)
		if err != nil {
			return err
		}
		fd, err := lib.Open(p, "/a5", true)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)

		start := p.Now()
		for i := 0; i < writes; i++ {
			if _, err := th.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				return err
			}
		}
		syncThr = float64(writes) / (p.Now() - start).Seconds()

		w, err := lib.NewAsyncWriter(p, 16, 4096)
		if err != nil {
			return err
		}
		start = p.Now()
		for i := 0; i < writes; i++ {
			if _, err := w.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				return err
			}
		}
		if err := w.Drain(p); err != nil {
			return err
		}
		asyncThr = float64(writes) / (p.Now() - start).Seconds()
		return nil
	})
	if err != nil {
		return nil, err
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
	defer sys.Close()
	var fmapT sim.Time
	var lat sim.Time
	err = sys.M.Drive("a6", 1, func(p *sim.Proc, _ func(error)) error {
		if err := mkfile(p, sys.NewProcess(ext4.Root), "/a6", size); err != nil {
			return err
		}
		in, err := sys.M.FS.Lookup(p, "/a6", ext4.Root)
		if err != nil {
			return err
		}
		in.DropFileTable()

		cfg := userlib.DefaultConfig()
		cfg.ExtentFmap = extent
		lib := userlib.New(sys.NewProcess(ext4.Root), cfg)
		th, err := lib.NewThread(p)
		if err != nil {
			return err
		}
		start := p.Now()
		fd, err := lib.Open(p, "/a6", false)
		if err != nil {
			return err
		}
		fmapT = p.Now() - start

		buf := make([]byte, 4096)
		rng := newXorshift(uint64(o.Seed) + 11)
		start = p.Now()
		for i := 0; i < reads; i++ {
			off := int64(rng.next()%uint64(size/4096)) * 4096
			if _, err := th.Pread(p, fd, buf, off); err != nil {
				return err
			}
		}
		lat = (p.Now() - start) / sim.Time(reads)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []float64{fmapT.Micros(), lat.Micros()}, nil
}
