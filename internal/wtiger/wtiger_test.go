package wtiger

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/sim"
)

const testKeys = 50000

func buildStore(t *testing.T, cacheBytes int64) (*core.System, *Store) {
	t.Helper()
	sys, err := core.New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	var st *Store
	sys.Sim.Spawn("build", func(p *sim.Proc) {
		s, err := Build(p, sys, sys.M.CPU, Config{Keys: testKeys, CacheBytes: cacheBytes, Path: "/wt.db"})
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

func TestBuildGeometry(t *testing.T) {
	_, st := buildStore(t, 1<<20)
	// Count the levels down the leftmost path of the image.
	img, root, _ := buildImage(testKeys)
	levels := 1
	for pg := root; img[pg*PageSize] == kindInternal; levels++ {
		pg = int64(binary.LittleEndian.Uint32(img[pg*PageSize+pageHeader+KeySize:]))
	}
	if levels < 3 {
		t.Fatalf("levels = %d, want >= 3 for %d keys", levels, testKeys)
	}
	wantLeaves := (testKeys + uint64(LeafCap) - 1) / uint64(LeafCap)
	if st.Pages < int64(wantLeaves) {
		t.Fatalf("pages = %d < leaves %d", st.Pages, wantLeaves)
	}
}

func TestLookupAllModes(t *testing.T) {
	for _, mode := range []string{"sync", "bypassd", "xrp"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			sys, st := buildStore(t, 1<<20)
			sys.Sim.Spawn("reader", func(p *sim.Proc) {
				pr := sys.NewProcess(ext4.Root)
				var c *Conn
				var err error
				switch mode {
				case "xrp":
					c, err = st.NewXRPConn(p, pr)
				default:
					io, e2 := sys.NewFileIO(p, pr, core.Engine(mode))
					if e2 != nil {
						t.Error(e2)
						return
					}
					c, err = st.NewConn(p, io)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, k := range []uint64{0, 1, 777, testKeys/2 + 3, testKeys - 1} {
					v, ok, err := c.Lookup(p, k)
					if err != nil || !ok {
						t.Errorf("lookup %d: ok=%v err=%v", k, ok, err)
						return
					}
					if v != ValueOf(k) {
						t.Errorf("lookup %d returned wrong value", k)
					}
				}
				if _, ok, _ := c.Lookup(p, testKeys+99); ok {
					t.Error("found a key that was never inserted")
				}
			})
			sys.Sim.Run()
			sys.Sim.Shutdown()
		})
	}
}

func TestUpdatePersistsAndInvalidatesCache(t *testing.T) {
	sys, st := buildStore(t, 1<<20)
	sys.Sim.Spawn("writer", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		io, err := sys.NewFileIO(p, pr, core.EngineBypassD)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := st.NewConn(p, io)
		if err != nil {
			t.Error(err)
			return
		}
		nv := ValueOf(999999)
		if err := c.Update(p, 1234, nv); err != nil {
			t.Error(err)
			return
		}
		v, ok, err := c.Lookup(p, 1234)
		if err != nil || !ok || v != nv {
			t.Errorf("lookup after update: ok=%v v=%v err=%v", ok, v, err)
		}
		// Neighbor keys untouched.
		v2, ok, _ := c.Lookup(p, 1235)
		if !ok || v2 != ValueOf(1235) {
			t.Error("update clobbered neighbor")
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestInsertDelta(t *testing.T) {
	sys, st := buildStore(t, 1<<20)
	sys.Sim.Spawn("w", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		io, _ := sys.NewFileIO(p, pr, core.EngineSync)
		c, err := st.NewConn(p, io)
		if err != nil {
			t.Error(err)
			return
		}
		nk := uint64(testKeys + 5)
		before := st.CacheHits + st.CacheMisses
		c.Insert(p, nk, ValueOf(nk))
		v, ok, err := c.Lookup(p, nk)
		if err != nil || !ok || v != ValueOf(nk) {
			t.Errorf("delta lookup: ok=%v err=%v", ok, err)
		}
		if touched := st.CacheHits + st.CacheMisses - before; touched != 0 {
			t.Errorf("insert+delta-lookup touched %d pages, want 0", touched)
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestScan(t *testing.T) {
	sys, st := buildStore(t, 1<<20)
	sys.Sim.Spawn("s", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		io, _ := sys.NewFileIO(p, pr, core.EngineSync)
		c, err := st.NewConn(p, io)
		if err != nil {
			t.Error(err)
			return
		}
		n, err := c.Scan(p, 100, 50)
		if err != nil || n != 50 {
			t.Errorf("scan: n=%d err=%v", n, err)
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestCacheImprovesHitRatio(t *testing.T) {
	sys, st := buildStore(t, 4<<20)
	sys.Sim.Spawn("r", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		io, _ := sys.NewFileIO(p, pr, core.EngineSync)
		c, err := st.NewConn(p, io)
		if err != nil {
			t.Error(err)
			return
		}
		// Repeatedly read a hot set: second pass should hit.
		for pass := 0; pass < 2; pass++ {
			for k := uint64(0); k < 200; k++ {
				if _, ok, err := c.Lookup(p, k); !ok || err != nil {
					t.Errorf("lookup %d: %v", k, err)
					return
				}
			}
		}
	})
	sys.Sim.Run()
	if st.CacheHitRatio() < 0.5 {
		t.Fatalf("hit ratio = %.2f, want > 0.5 on repeated hot set", st.CacheHitRatio())
	}
	sys.Sim.Shutdown()
}

func TestXRPDescendsFewerKernelCrossings(t *testing.T) {
	// With a cold cache, an XRP lookup should be faster than the
	// sync path (one kernel entry vs one per level) but slower than
	// pure userspace.
	lat := map[string]sim.Time{}
	for _, mode := range []string{"sync", "xrp", "bypassd"} {
		sys, st := buildStore(t, PageSize) // effectively no cache
		mode := mode
		sys.Sim.Spawn("r", func(p *sim.Proc) {
			pr := sys.NewProcess(ext4.Root)
			var c *Conn
			var err error
			switch mode {
			case "xrp":
				c, err = st.NewXRPConn(p, pr)
			default:
				io, e2 := sys.NewFileIO(p, pr, core.Engine(mode))
				if e2 != nil {
					t.Error(e2)
					return
				}
				c, err = st.NewConn(p, io)
			}
			if err != nil {
				t.Error(err)
				return
			}
			start := p.Now()
			const ops = 20
			for i := 0; i < ops; i++ {
				k := uint64(i * 997 % testKeys)
				if _, ok, err := c.Lookup(p, k); !ok || err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
			lat[mode] = (p.Now() - start) / ops
		})
		sys.Sim.Run()
		sys.Sim.Shutdown()
	}
	t.Logf("cold-cache lookup latency: %v", lat)
	if !(lat["bypassd"] < lat["xrp"] && lat["xrp"] < lat["sync"]) {
		t.Fatalf("ordering bypassd < xrp < sync violated: %v", lat)
	}
}
