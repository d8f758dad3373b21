package bypassd

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/kvell"
)

// bootDirect4K boots a system, creates and preallocates /bench, opens
// it through the BypassD engine, and issues one warm read so every
// lazy structure (file table, IOTLB, queue pair, DMA buffer) exists.
// The returned handles drive steady-state reads: the system is live
// and the caller owns sys.Close().
func bootDirect4K(t testing.TB) (sys *System, io FileIO, fd int, buf []byte) {
	return bootDirect(t, 4096)
}

// bootDirect is bootDirect4K with a size-byte read buffer; steady-state
// reads of that size go at offset size.
func bootDirect(t testing.TB, size int) (sys *System, io FileIO, fd int, buf []byte) {
	return bootDirectWith(t, size, core.Config{Capacity: 1 << 30})
}

// bootDirectWith is bootDirect on a system booted from cfg.
func bootDirectWith(t testing.TB, size int, cfg core.Config) (sys *System, io FileIO, fd int, buf []byte) {
	sys, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, size)
	Run(sys, "boot", func(p *Proc) {
		pr := sys.NewProcess(RootCred)
		f, err := pr.Create(p, "/bench", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, f, 1<<20); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, f)
		_ = pr.Close(p, f)
		io, err = sys.NewFileIO(p, sys.NewProcess(RootCred), EngineBypassD)
		if err != nil {
			t.Error(err)
			return
		}
		fd, _ = io.Open(p, "/bench", false)
		_, _ = io.Pread(p, fd, buf, 0) // warm
		if _, err := io.Pread(p, fd, buf, int64(size)); err != nil {
			t.Error(err)
		}
	})
	return sys, io, fd, buf
}

// direct4KRead is one boot-inclusive iteration: boot a system, create
// a file, issue one warm 4 KiB BypassD read, tear down.
func direct4KRead(t testing.TB) {
	sys, _, _, _ := bootDirect4K(t)
	sys.Close()
}

// TestDirect4KReadAllocBudget is the `make bench-check` regression
// gate: a steady-state 4 KiB read (system booted once, pools warm)
// must stay within single digits of heap allocations per op — the
// zero-alloc dispatch work's contract. Gated behind BENCH_CHECK=1 so
// ordinary `go test ./...` runs — which share the process with
// unrelated parallel tests — don't flake on cross-test allocation
// noise.
func TestDirect4KReadAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	const budget = 10
	sys, io, fd, buf := bootDirect4K(t)
	defer sys.Close()
	read := func(p *Proc) {
		if _, err := io.Pread(p, fd, buf, 4096); err != nil {
			t.Error(err)
		}
	}
	Run(sys, "alloc-warm", read) // warm sync.Pools and the proc free list
	allocs := testing.AllocsPerRun(20, func() { Run(sys, "alloc-check", read) })
	t.Logf("Direct4KRead steady state: %.0f allocs/op (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("steady-state Direct4KRead allocates %.0f objects/op, budget is %d — the hot path regressed", allocs, budget)
	}
}

// TestDirect64KReadAllocBudget pins the 64 KiB rung of the read
// ladder: a warm aligned BypassD read DMAs straight into the caller's
// buffer, so the steady state allocates nothing at any transfer size.
func TestDirect64KReadAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	sys, io, fd, buf := bootDirect(t, 64<<10)
	defer sys.Close()
	read := func(p *Proc) {
		if _, err := io.Pread(p, fd, buf, int64(len(buf))); err != nil {
			t.Error(err)
		}
	}
	Run(sys, "alloc-warm", read) // warm sync.Pools and the proc free list
	allocs := testing.AllocsPerRun(20, func() { Run(sys, "alloc-check", read) })
	t.Logf("Direct64KRead steady state: %.0f allocs/op (budget 0)", allocs)
	if allocs > 0 {
		t.Fatalf("steady-state Direct64KRead allocates %.0f objects/op, budget is 0", allocs)
	}
}

// TestBootDirect4KReadAllocBudget bounds the boot-inclusive path —
// Mkfs, Mount, page tables, queues, one read, teardown — so boot-cost
// regressions stay visible even though the steady-state gate above
// no longer sees them. (The seed measured ~2900; pooling through
// PR 6 brought it under 200.)
func TestBootDirect4KReadAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	const budget = 250
	direct4KRead(t) // warm sync.Pools and lazy global state
	allocs := testing.AllocsPerRun(5, func() { direct4KRead(t) })
	t.Logf("BootDirect4KRead: %.0f allocs/op (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("BootDirect4KRead allocates %.0f objects/op, budget is %d — the boot path regressed", allocs, budget)
	}
}

// TestKVellBypassDAllocBudget pins the kvell request path the frontend
// fleet drives per request: a warm synchronous BypassD read and write
// must allocate nothing — the slot is encoded into the worker's buffer
// and Do reuses its results slice.
func TestKVellBypassDAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var w *kvell.Worker
	Run(sys, "kvell-boot", func(p *Proc) {
		st, err := kvell.Build(p, sys, kvell.Config{Items: 1024, Path: "/kvell.db"})
		if err != nil {
			t.Error(err)
			return
		}
		if w, err = kvell.NewBypassWorker(p, sys.Lib(sys.NewProcess(RootCred)), st); err != nil {
			t.Error(err)
		}
	})
	if w == nil {
		t.Fatal("kvell boot failed")
	}
	for _, c := range []struct {
		name string
		req  kvell.Request
	}{
		{"read", kvell.Request{Key: 7}},
		{"write", kvell.Request{Write: true, Key: 7, Val: kvell.ValueOf(8)}},
	} {
		reqs := []kvell.Request{c.req}
		do := func(p *Proc) {
			if res := w.Do(p, reqs); res[0].Err != nil {
				t.Error(res[0].Err)
			}
		}
		Run(sys, "kvell-warm", do)
		allocs := testing.AllocsPerRun(20, func() { Run(sys, "kvell-op", do) })
		t.Logf("kvell BypassD %s: %.0f allocs/op (budget 0)", c.name, allocs)
		if allocs > 0 {
			t.Errorf("warm kvell BypassD %s allocates %.0f objects/op, budget is 0", c.name, allocs)
		}
	}
}

// TestKVellLibaioAllocBudget pins the kvell libaio path, the Fig. 16
// baseline: kernel AIO spawns one helper proc per op with a body bound
// once per pooled request, so a warm batch allocates the same few
// objects (the reaped events of each io_getevents) however many ops
// it carries. A per-op allocation in the helper spawn breaks the
// QD64 budget.
func TestKVellLibaioAllocBudget(t *testing.T) {
	if os.Getenv("BENCH_CHECK") == "" {
		t.Skip("set BENCH_CHECK=1 to enforce the allocation budget (make bench-check)")
	}
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var st *kvell.Store
	Run(sys, "kvell-boot", func(p *Proc) {
		if st, err = kvell.Build(p, sys, kvell.Config{Items: 1024, Path: "/kvell.db"}); err != nil {
			t.Error(err)
		}
	})
	if st == nil {
		t.Fatal("kvell boot failed")
	}
	for _, c := range []struct {
		qd     int
		budget float64
	}{{1, 2}, {64, 4}} {
		var w *kvell.Worker
		Run(sys, "kvell-worker", func(p *Proc) {
			if w, err = kvell.NewAioWorker(p, sys, st, sys.NewProcess(RootCred), c.qd); err != nil {
				t.Error(err)
			}
		})
		if w == nil {
			t.Fatalf("QD%d worker setup failed", c.qd)
		}
		reqs := make([]kvell.Request, c.qd)
		for i := range reqs {
			reqs[i] = kvell.Request{Key: uint64(i)}
		}
		do := func(p *Proc) {
			for _, res := range w.Do(p, reqs) {
				if res.Err != nil {
					t.Error(res.Err)
				}
			}
		}
		Run(sys, "kvell-warm", do)
		allocs := testing.AllocsPerRun(20, func() { Run(sys, "kvell-batch", do) })
		t.Logf("kvell libaio QD%d: %.0f allocs/batch (budget %.0f)", c.qd, allocs, c.budget)
		if allocs > c.budget {
			t.Errorf("warm kvell libaio QD%d batch allocates %.0f objects, budget is %.0f", c.qd, allocs, c.budget)
		}
	}
}
