package experiments

import (
	"fmt"

	"repro/internal/bpfkv"
	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/kvell"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wtiger"
	"repro/internal/ycsb"
)

func init() {
	registerCells("F13", "WiredTiger YCSB throughput scaling with threads (Fig. 13)", cellsF13)
	registerCells("F14", "WiredTiger throughput vs cache size, normalized to sync (Fig. 14)", cellsF14)
	registerCells("F15", "BPF-KV avg and p99.9 lookup latency vs threads (Fig. 15)", cellsF15)
	registerCells("F16", "KVell throughput and latency under YCSB (Fig. 16)", cellsF16)
}

// wtSystems are Fig. 13/14's compared systems.
var wtSystems = []string{"sync", "xrp", "bypassd"}

// runWT executes one WiredTiger configuration and returns Kops/s.
func runWT(o Options, system string, wl ycsb.Workload, threads int, keys uint64, cacheBytes int64, opsPerThread int) (float64, error) {
	sys, err := o.boot(1 << 30)
	if err != nil {
		return 0, err
	}
	defer sys.Close()

	var start, end sim.Time
	totalOps := 0
	err = sys.M.Drive("wt-main", 1, func(p *sim.Proc, fail func(error)) error {
		st, err := wtiger.Build(p, sys, sys.M.CPU, wtiger.Config{
			Keys: keys, CacheBytes: cacheBytes, Path: "/wt.db",
		})
		if err != nil {
			return err
		}
		pr := sys.NewProcess(ext4.Root)
		startThreads(sys, "wt-worker", threads, fail, func(w *sim.Proc, t int) (func() error, error) {
			var conn *wtiger.Conn
			var err error
			switch system {
			case "xrp":
				conn, err = st.NewXRPConn(w, pr)
			default:
				io, e2 := sys.NewFileIO(w, pr, core.Engine(system))
				if e2 != nil {
					err = e2
				} else {
					conn, err = st.NewConn(w, io)
				}
			}
			return func() error {
				gen := ycsb.NewGenerator(wl, keys, o.Seed*131+int64(t))
				// Warm the cache to steady state before measuring
				// (the paper's runs measure a warmed store).
				warm := opsPerThread
				if start == 0 {
					start = w.Now() // provisional; reset after warmup
				}
				measuring := false
				for i := 0; i < warm+opsPerThread; i++ {
					if i == warm {
						measuring = true
						if t == 0 {
							start = w.Now()
						}
					}
					op := gen.Next()
					var err error
					switch op.Type {
					case ycsb.Read:
						_, _, err = conn.Lookup(w, op.Key)
					case ycsb.Update:
						err = conn.Update(w, op.Key, wtiger.ValueOf(op.Key+1))
					case ycsb.Insert:
						conn.Insert(w, op.Key, wtiger.ValueOf(op.Key))
					case ycsb.Scan:
						_, err = conn.Scan(w, op.Key, op.ScanLen)
					case ycsb.ReadModifyWrite:
						_, _, err = conn.Lookup(w, op.Key)
						if err == nil {
							err = conn.Update(w, op.Key, wtiger.ValueOf(op.Key+2))
						}
					}
					if err != nil {
						return fmt.Errorf("wt %s op %v key %d: %w", system, op.Type, op.Key, err)
					}
					if measuring {
						totalOps++
					}
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
		return 0, err
	}
	if end <= start {
		return 0, fmt.Errorf("wt: empty measurement window")
	}
	return stats.Throughput(int64(totalOps), end-start) / 1000, nil
}

func wtScale(o Options) (keys uint64, cacheFrac float64, ops int) {
	if o.Quick {
		return 60_000, 0.13, 200
	}
	return 400_000, 0.13, 1500
}

func cellsF13(o Options) *cellReport {
	threads := []int{1, 2, 4, 8, 16}
	workloads := []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.D, ycsb.E, ycsb.F}
	if o.Quick {
		threads = []int{1, 4}
		workloads = []ycsb.Workload{ycsb.A, ycsb.C, ycsb.D}
	}
	keys, frac, ops := wtScale(o)
	dataBytes := int64(keys/uint64OfLeafCap()) * wtiger.PageSize * 12 / 10
	cache := int64(float64(dataBytes) * frac)
	tb := &cellTable{
		title: "Fig. 13: WiredTiger YCSB throughput (Kops/s)",
		keys:  []string{"workload", "threads"},
		cols:  plain(wtSystems...),
	}
	for _, wl := range workloads {
		for _, n := range threads {
			tb.cells = append(tb.cells, Cell{
				key: []string{wl.Name, fmt.Sprint(n)},
				run: func(seed int64) ([]float64, error) {
					kops := make([]float64, len(wtSystems))
					for i, sysName := range wtSystems {
						k, err := runWT(o.at(seed), sysName, wl, n, keys, cache, ops)
						if err != nil {
							return nil, fmt.Errorf("F13 %s/%s/%d: %w", wl.Name, sysName, n, err)
						}
						kops[i] = k
					}
					return kops, nil
				},
			})
		}
	}
	return &cellReport{title: "WiredTiger scaling", tables: []*cellTable{tb},
		notes: []string{
			"bypassd > xrp > sync on A/B/C/E/F; ~parity on insert-heavy D (little I/O)",
			"gains shrink at high thread counts as the cache lock becomes the bottleneck",
		}}
}

func uint64OfLeafCap() uint64 { return uint64(wtiger.LeafCap) }

func cellsF14(o Options) *cellReport {
	keys, _, ops := wtScale(o)
	dataBytes := int64(keys/uint64OfLeafCap()) * wtiger.PageSize * 12 / 10
	// Paper cache points 2/4/6 GB against a 46 GB store.
	fracs := []float64{2.0 / 46, 4.0 / 46, 6.0 / 46}
	labels := []string{"2GB-equiv", "4GB-equiv", "6GB-equiv"}
	workloads := []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C, ycsb.D, ycsb.E, ycsb.F}
	if o.Quick {
		workloads = []ycsb.Workload{ycsb.B, ycsb.C}
		fracs = fracs[:2]
	}
	tb := &cellTable{
		title: "Fig. 14: WiredTiger single-thread throughput vs cache size (normalized to sync)",
		keys:  []string{"workload", "cache"},
		cols:  plain(wtSystems...),
	}
	for _, wl := range workloads {
		for i, frac := range fracs {
			cache := int64(float64(dataBytes) * frac)
			tb.cells = append(tb.cells, Cell{
				key: []string{wl.Name, labels[i]},
				run: func(seed int64) ([]float64, error) {
					kops := make([]float64, len(wtSystems))
					for j, sysName := range wtSystems {
						k, err := runWT(o.at(seed), sysName, wl, 1, keys, cache, ops)
						if err != nil {
							return nil, fmt.Errorf("F14 %s/%s: %w", wl.Name, sysName, err)
						}
						kops[j] = k
					}
					return []float64{1.0, kops[1] / kops[0], kops[2] / kops[0]}, nil
				},
			})
		}
	}
	return &cellReport{title: "cache sensitivity", tables: []*cellTable{tb},
		notes: []string{"xrp's edge shrinks as the cache grows; bypassd improves every I/O regardless of cache size"}}
}

// runBPFKV executes one Fig. 15 configuration.
func runBPFKV(o Options, mode string, threads int, objects uint64, opsPerThread int) (avg, p999 sim.Time, err error) {
	sys, err := o.boot(1 << 30)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()
	st, err := bpfkv.Plan(objects, 6)
	if err != nil {
		return 0, 0, err
	}

	hist := stats.NewHistogram()
	err = sys.M.Drive("kv-main", 1, func(p *sim.Proc, fail func(error)) error {
		pr := sys.NewProcess(ext4.Root)
		if mode == "spdk" {
			d, err := sys.SPDK()
			if err != nil {
				return err
			}
			q, err := d.NewQueue(p)
			if err != nil {
				return err
			}
			if err := st.LoadSPDK(p, d, q, "/kv.db"); err != nil {
				return err
			}
		} else {
			if err := st.LoadFS(p, sys, "/kv.db"); err != nil {
				return err
			}
		}
		startThreads(sys, "kv-worker", threads, fail, func(w *sim.Proc, t int) (func() error, error) {
			var conn *bpfkv.Conn
			var err error
			switch mode {
			case "xrp":
				conn, err = st.NewXRPConn(w, pr)
			default:
				io, e2 := sys.NewFileIO(w, pr, core.Engine(mode))
				if e2 != nil {
					err = e2
				} else {
					conn, err = st.NewConn(w, io)
				}
			}
			return func() error {
				rng := newXorshift(uint64(o.Seed)*2654435761 + uint64(t) + 1)
				for i := 0; i < opsPerThread; i++ {
					key := rng.next() % objects
					t0 := w.Now()
					if _, _, err := conn.Get(w, key); err != nil {
						return err
					}
					hist.Add(w.Now() - t0)
				}
				return nil
			}, err
		})
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return hist.Mean(), hist.Percentile(99.9), nil
}

type xorshift struct{ s uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 1
	}
	return &xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

func cellsF15(o Options) *cellReport {
	threads := []int{1, 2, 4, 8, 16, 24}
	objects := uint64(150_000)
	ops := 400
	if o.Quick {
		threads = []int{1, 4}
		objects = 50_000
		ops = 80
	}
	tb := &cellTable{
		title: "Fig. 15: BPF-KV lookup latency (7 I/Os per lookup)",
		keys:  []string{"threads", "system"},
		cols:  plain("avg (µs)", "p99.9 (µs)"),
	}
	for _, n := range threads {
		for _, mode := range []string{"sync", "xrp", "spdk", "bypassd"} {
			tb.cells = append(tb.cells, Cell{
				key: []string{fmt.Sprint(n), mode},
				run: func(seed int64) ([]float64, error) {
					avg, p999, err := runBPFKV(o.at(seed), mode, n, objects, ops)
					if err != nil {
						return nil, fmt.Errorf("F15 %s/%d: %w", mode, n, err)
					}
					return []float64{avg.Micros(), p999.Micros()}, nil
				},
			})
		}
	}
	return &cellReport{title: "BPF-KV latency", tables: []*cellTable{tb},
		notes: []string{
			"spdk < bypassd < xrp << sync at low threads; bypassd ≈ spdk + 7×0.55µs",
		}}
}

// runKVell executes one Fig. 16 configuration.
func runKVell(o Options, mode string, wl ycsb.Workload, threads int, items uint64, opsPerThread int) (kops float64, meanLat sim.Time, err error) {
	sys, err := o.boot(2 << 30)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close()

	hist := stats.NewHistogram()
	var start, end sim.Time
	totalOps := 0
	err = sys.M.Drive("kvell-main", 1, func(p *sim.Proc, fail func(error)) error {
		st, err := kvell.Build(p, sys, kvell.Config{Items: items, Path: "/kvell.db"})
		if err != nil {
			return err
		}
		pr := sys.NewProcess(ext4.Root)
		startThreads(sys, "kvell-worker", threads, fail, func(w *sim.Proc, t int) (func() error, error) {
			var worker *kvell.Worker
			var err error
			qd := 1
			switch mode {
			case "kvell_1":
				worker, err = kvell.NewAioWorker(w, sys, st, pr, 1)
			case "kvell_64":
				qd = 64
				worker, err = kvell.NewAioWorker(w, sys, st, pr, 64)
			default:
				worker, err = kvell.NewBypassWorker(w, sys.Lib(pr), st)
			}
			return func() error {
				if start == 0 {
					start = w.Now()
				}
				gen := ycsb.NewGenerator(wl, items, o.Seed*997+int64(t))
				for done := 0; done < opsPerThread; {
					batch := qd
					if batch > opsPerThread-done {
						batch = opsPerThread - done
					}
					reqs := make([]kvell.Request, batch)
					for i := range reqs {
						op := gen.Next()
						switch op.Type {
						case ycsb.Update:
							reqs[i] = kvell.Request{Write: true, Key: op.Key, Val: kvell.ValueOf(op.Key + 1)}
						default:
							reqs[i] = kvell.Request{Key: op.Key}
						}
					}
					for _, res := range worker.Do(w, reqs) {
						if res.Err != nil {
							return res.Err
						}
						hist.Add(res.Latency)
					}
					done += batch
					totalOps += batch
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
	if end <= start {
		return 0, 0, fmt.Errorf("kvell: empty window")
	}
	return stats.Throughput(int64(totalOps), end-start) / 1000, hist.Mean(), nil
}

func cellsF16(o Options) *cellReport {
	threads := []int{1, 2, 4, 8, 16}
	items := uint64(30_000)
	ops := 512
	workloads := []ycsb.Workload{ycsb.A, ycsb.B, ycsb.C}
	if o.Quick {
		threads = []int{1, 4}
		items = 8_000
		ops = 128
	}
	tb := &cellTable{
		title: "Fig. 16: KVell YCSB throughput and latency",
		keys:  []string{"workload", "threads", "system"},
		cols:  plain("Kops/s", "mean latency (µs)"),
	}
	for _, wl := range workloads {
		for _, n := range threads {
			for _, mode := range []string{"kvell_1", "kvell_64", "bypassd"} {
				tb.cells = append(tb.cells, Cell{
					key: []string{wl.Name, fmt.Sprint(n), mode},
					run: func(seed int64) ([]float64, error) {
						kops, lat, err := runKVell(o.at(seed), mode, wl, n, items, ops)
						if err != nil {
							return nil, fmt.Errorf("F16 %s/%s/%d: %w", wl.Name, mode, n, err)
						}
						return []float64{kops, lat.Micros()}, nil
					},
				})
			}
		}
	}
	return &cellReport{title: "KVell", tables: []*cellTable{tb},
		notes: []string{
			"kvell_64 trades latency for throughput; bypassd restores low latency and beats kvell_1 throughput",
			"on write-heavy A, bypassd approaches kvell_64 by dodging the ext4 per-inode write lock",
		}}
}
