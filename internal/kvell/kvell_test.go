package kvell

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/sim"
)

const testItems = 4000

func build(t *testing.T) (*core.System, *Store) {
	t.Helper()
	sys, err := core.New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	var st *Store
	sys.Sim.Spawn("build", func(p *sim.Proc) {
		s, err := Build(p, sys, Config{Items: testItems, Path: "/kvell.db"})
		if err != nil {
			t.Error(err)
			return
		}
		st = s
	})
	sys.Sim.Run()
	if st == nil {
		t.Fatal("build failed")
	}
	return sys, st
}

func TestReadsReturnBuiltValues(t *testing.T) {
	sys, st := build(t)
	sys.Sim.Spawn("r", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		w, err := NewAioWorker(p, sys, st, pr, 8)
		if err != nil {
			t.Error(err)
			return
		}
		reqs := []Request{{Key: 0}, {Key: 17}, {Key: testItems - 1}}
		for _, res := range w.Do(p, reqs) {
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
		}
		out := w.Do(p, reqs)
		for i, res := range out {
			if res.Val != ValueOf(reqs[i].Key) {
				t.Errorf("key %d wrong value", reqs[i].Key)
			}
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestWriteThenReadBothModes(t *testing.T) {
	sys, st := build(t)
	sys.Sim.Spawn("w", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		aio, err := NewAioWorker(p, sys, st, pr, 4)
		if err != nil {
			t.Error(err)
			return
		}
		nv := ValueOf(999999)
		res := aio.Do(p, []Request{{Write: true, Key: 42, Val: nv}})
		if res[0].Err != nil {
			t.Error(res[0].Err)
			return
		}
		// Read it back through the BypassD worker.
		pr2 := sys.NewProcess(ext4.Root)
		byp, err := NewBypassWorker(p, sys.Lib(pr2), st)
		if err != nil {
			t.Error(err)
			return
		}
		got := byp.Do(p, []Request{{Key: 42}})
		if got[0].Err != nil || got[0].Val != nv {
			t.Errorf("bypass read after aio write: err=%v match=%v", got[0].Err, got[0].Val == nv)
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestMissingKey(t *testing.T) {
	sys, st := build(t)
	sys.Sim.Spawn("r", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		w, _ := NewAioWorker(p, sys, st, pr, 1)
		res := w.Do(p, []Request{{Key: 1 << 40}})
		if res[0].Err == nil {
			t.Error("missing key returned no error")
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestQueueDepthTradeoff(t *testing.T) {
	// KVell_64 achieves higher throughput than KVell_1 at much
	// higher per-request latency; BypassD restores low latency
	// (Fig. 16).
	type outcome struct {
		thr float64
		lat sim.Time
	}
	const ops = 256
	run := func(mode string) outcome {
		sys, st := build(t)
		var o outcome
		sys.Sim.Spawn("run", func(p *sim.Proc) {
			pr := sys.NewProcess(ext4.Root)
			var w *Worker
			var err error
			switch mode {
			case "kvell1":
				w, err = NewAioWorker(p, sys, st, pr, 1)
			case "kvell64":
				w, err = NewAioWorker(p, sys, st, pr, 64)
			default:
				w, err = NewBypassWorker(p, sys.Lib(pr), st)
			}
			if err != nil {
				t.Error(err)
				return
			}
			reqs := make([]Request, ops)
			for i := range reqs {
				reqs[i] = Request{Key: uint64(i*31) % testItems}
			}
			start := p.Now()
			var total sim.Time
			for _, res := range w.Do(p, reqs) {
				if res.Err != nil {
					t.Error(res.Err)
					return
				}
				total += res.Latency
			}
			o.thr = float64(ops) / (p.Now() - start).Seconds()
			o.lat = total / ops
		})
		sys.Sim.Run()
		sys.Sim.Shutdown()
		return o
	}
	k1, k64, byp := run("kvell1"), run("kvell64"), run("bypassd")
	t.Logf("kvell1=%+v kvell64=%+v bypassd=%+v", k1, k64, byp)
	if k64.thr <= k1.thr {
		t.Fatalf("QD64 throughput %.0f <= QD1 %.0f", k64.thr, k1.thr)
	}
	if k64.lat <= 5*k1.lat {
		t.Fatalf("QD64 latency %v not far above QD1 %v", k64.lat, k1.lat)
	}
	if byp.lat >= k64.lat/10 {
		t.Fatalf("bypassd latency %v not order(s) below kvell64 %v", byp.lat, k64.lat)
	}
	if byp.thr <= k1.thr {
		t.Fatalf("bypassd throughput %.0f <= kvell1 %.0f", byp.thr, k1.thr)
	}
}
