package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registerCells("F10", "Aggregate write bandwidth with multiple writer processes (Fig. 10)", cellsF10)
	registerCells("F11", "Read latency with background reader processes (Fig. 11)", cellsF11)
	register("F12", "Throughput timeline across access revocation (Fig. 12)", runF12)
}

func cellsF10(o Options) *cellReport {
	procs := []int{1, 2, 4, 8, 16}
	ops := 300
	if o.Quick {
		procs = []int{1, 4}
		ops = 80
	}
	tb := &cellTable{
		title: "Fig. 10: aggregate 4KB write bandwidth, private file per process",
		keys:  []string{"processes", "engine"},
		// NaN marks the paper's empty SPDK bars: no multi-process sharing.
		cols: []column{{head: "bandwidth (MB/s)", fmt: orNA("n/a (cannot share)")}},
	}
	for _, n := range procs {
		for _, eng := range []core.Engine{core.EngineSync, core.EngineLibaio, core.EngineUring, core.EngineSPDK, core.EngineBypassD} {
			tb.cells = append(tb.cells, Cell{
				key: []string{fmt.Sprint(n), string(eng)},
				run: func(seed int64) ([]float64, error) {
					res, err := fio.Run(fio.Spec{VBAFixedLatency: -1, Seed: seed, Observers: o.at(seed).observers()}, []fio.Group{{
						Name: "w", Engine: eng, Write: true, BS: 4096, Threads: n,
						OpsPerThread: ops, FileBytes: 16 << 20, ProcessPerThread: true,
					}})
					if err != nil {
						if eng == core.EngineSPDK && n > 1 {
							return []float64{math.NaN()}, nil
						}
						return nil, err
					}
					return []float64{res["w"].Bandwidth() / 1e6}, nil
				},
			})
		}
	}
	return &cellReport{title: "device sharing bandwidth", tables: []*cellTable{tb},
		notes: []string{"bypassd sustains the highest aggregate bandwidth at every process count"}}
}

func cellsF11(o Options) *cellReport {
	readers := []int{0, 1, 2, 4, 8, 12, 16}
	ops := 300
	if o.Quick {
		readers = []int{0, 4, 16}
		ops = 80
	}
	tb := &cellTable{
		title: "Fig. 11: 4KB random read latency vs background readers",
		keys:  []string{"background readers", "system"},
		cols:  plain("latency (µs)"),
	}
	for _, n := range readers {
		for _, eng := range []core.Engine{core.EngineSync, core.EngineBypassD} {
			groups := []fio.Group{{
				Name: "fg", Engine: eng, BS: 4096, Threads: 1,
				OpsPerThread: ops, FileBytes: 16 << 20, ProcessPerThread: true,
			}}
			if n > 0 {
				groups = append(groups, fio.Group{
					Name: "bg", Engine: core.EngineSync, BS: 4096, Threads: n,
					OpsPerThread: 0, FileBytes: 16 << 20, ProcessPerThread: true,
				})
			}
			tb.cells = append(tb.cells, Cell{
				key: []string{fmt.Sprint(n), string(eng)},
				run: func(seed int64) ([]float64, error) {
					res, err := fio.Run(fio.Spec{VBAFixedLatency: -1, Seed: seed, Observers: o.at(seed).observers()}, groups)
					if err != nil {
						return nil, err
					}
					return []float64{res["fg"].Lat.Mean().Micros()}, nil
				},
			})
		}
	}
	return &cellReport{title: "device-side fairness", tables: []*cellTable{tb},
		notes: []string{"round-robin queue arbitration keeps bypassd below sync at every load point"}}
}

// runF12 traces one reader's throughput across a revocation event:
// it starts on the BypassD interface; partway through, a second
// process opens the file through the kernel interface; the kernel
// revokes direct access and the reader falls back (paper §3.6).
func runF12(o Options) (*Report, error) {
	duration := 8 * sim.Second
	revokeAt := 5 * sim.Second
	bucket := 500 * sim.Millisecond
	if o.Quick {
		duration = 400 * sim.Millisecond
		revokeAt = 250 * sim.Millisecond
		bucket = 50 * sim.Millisecond
	}

	sys, err := o.boot(1 << 30)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	series := stats.NewSeries(bucket)
	var runErr error
	var directBefore, fellBack bool

	sys.Sim.Spawn("f12", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/shared", 0o666)
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

		start := p.Now()
		end := start + duration

		// The interfering process: opens kernel-interface at the
		// revocation point.
		other := sys.NewProcess(ext4.Root)
		sys.Sim.Spawn("interferer", func(q *sim.Proc) {
			q.Sleep(revokeAt)
			if _, err := other.Open(q, "/shared", false); err != nil {
				runErr = err
			}
		})

		// The measured reader.
		reader := sys.NewProcess(ext4.Root)
		lib := sys.Lib(reader)
		th, err := lib.NewThread(p)
		if err != nil {
			runErr = err
			return
		}
		rfd, err := lib.Open(p, "/shared", false)
		if err != nil {
			runErr = err
			return
		}
		st, _ := lib.State(rfd)
		directBefore = st.Direct()
		buf := make([]byte, 4096)
		rngOff := int64(0)
		for p.Now() < end {
			off := (rngOff * 127) % (64 << 20 / 4096) * 4096
			rngOff++
			if _, err := th.Pread(p, rfd, buf, off); err != nil {
				runErr = err
				return
			}
			series.Record(p.Now()-start, 1)
		}
		fellBack = !st.Direct()
	})
	sys.Sim.Run()
	if runErr != nil {
		return nil, runErr
	}
	if !directBefore || !fellBack {
		return nil, fmt.Errorf("F12: revocation flow broken (direct=%v fellBack=%v)", directBefore, fellBack)
	}

	tb := stats.NewTable("Fig. 12: read throughput over time (revocation at the marked point)",
		"time (s)", "throughput (Kops/s)", "interface")
	buckets := series.Buckets()
	if n := len(buckets); n > 0 && buckets[n-1] == 0 {
		buckets = buckets[:n-1] // drop the empty edge bucket
	}
	for i := range buckets {
		t := sim.Time(i) * bucket
		iface := "bypassd"
		if t >= revokeAt {
			iface = "kernel (revoked)"
		}
		tb.AddRow(fmt.Sprintf("%.2f", t.Seconds()), series.Rate(i)/1000, iface)
	}
	return &Report{ID: "F12", Title: "revocation timeline", Tables: []*stats.Table{tb},
		Notes: []string{"throughput steps down at revocation and stays at the kernel-interface level"}}, nil
}
