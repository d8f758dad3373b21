package wtiger

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func newCacheEnv(budget int64) (*sim.Sim, *sim.CPUSet, *pageCache) {
	s := sim.New()
	return s, s.NewCPUSet(4), newPageCacheOn(s, 0, budget)
}

func TestCacheHitMissAndEviction(t *testing.T) {
	s, cpu, c := newCacheEnv(3 * PageSize)
	s.Spawn("t", func(p *sim.Proc) {
		for pg := int64(0); pg < 5; pg++ {
			data := make([]byte, PageSize)
			data[0] = byte(pg)
			c.put(p, pg, data, 10, cpu)
		}
		// Budget of 3 pages: 0 and 1 evicted (LRU).
		if c.lru.Len() != 3 {
			t.Errorf("len = %d, want 3", c.lru.Len())
		}
		if _, ok := c.get(p, 0, 10, cpu); ok {
			t.Error("page 0 survived past budget")
		}
		if d, ok := c.get(p, 4, 10, cpu); !ok || d[0] != 4 {
			t.Error("newest page missing")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestCacheLRUTouchOrder(t *testing.T) {
	s, cpu, c := newCacheEnv(2 * PageSize)
	s.Spawn("t", func(p *sim.Proc) {
		c.put(p, 1, make([]byte, PageSize), 0, cpu)
		c.put(p, 2, make([]byte, PageSize), 0, cpu)
		// Touch 1 so 2 becomes the LRU victim.
		if _, ok := c.get(p, 1, 0, cpu); !ok {
			t.Error("page 1 missing")
		}
		c.put(p, 3, make([]byte, PageSize), 0, cpu)
		if _, ok := c.get(p, 2, 0, cpu); ok {
			t.Error("page 2 should have been the LRU victim")
		}
		if _, ok := c.get(p, 1, 0, cpu); !ok {
			t.Error("recently touched page 1 evicted")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestCacheReplaceUpdatesContent(t *testing.T) {
	s, cpu, c := newCacheEnv(4 * PageSize)
	s.Spawn("t", func(p *sim.Proc) {
		a := make([]byte, PageSize)
		a[0] = 1
		c.put(p, 7, a, 0, cpu)
		b := make([]byte, PageSize)
		b[0] = 2
		c.put(p, 7, b, 0, cpu)
		if c.lru.Len() != 1 {
			t.Errorf("len = %d after replace", c.lru.Len())
		}
		if d, _ := c.get(p, 7, 0, cpu); d[0] != 2 {
			t.Error("replace kept stale content")
		}
	})
	s.Run()
	s.Shutdown()
}

func TestCacheLockSerializesAccess(t *testing.T) {
	s, cpu, c := newCacheEnv(16 * PageSize)
	const holders = 4
	var ends []sim.Time
	for i := 0; i < holders; i++ {
		s.Spawn(fmt.Sprintf("h%d", i), func(p *sim.Proc) {
			c.put(p, 1, make([]byte, PageSize), 1000, cpu) // 1µs under lock
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	// Four 1µs critical sections serialize: last finishes at ~4µs.
	var max sim.Time
	for _, e := range ends {
		if e > max {
			max = e
		}
	}
	if max < 4000 {
		t.Fatalf("cache lock did not serialize: last end %v", max)
	}
	s.Shutdown()
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	prev := encodeKey(0)
	for _, k := range []uint64{1, 2, 255, 256, 1 << 20, 1 << 40, ^uint64(0)} {
		cur := encodeKey(k)
		if string(prev[:]) >= string(cur[:]) {
			t.Fatalf("encoding not order preserving at %d", k)
		}
		prev = cur
	}
}

func TestSearchInternalBoundaries(t *testing.T) {
	// Build an internal page with keys 0, 100, 200 -> children 1,2,3.
	pg := make([]byte, PageSize)
	pg[0] = kindInternal
	pg[1], pg[2] = 3, 0 // count=3 little endian
	for i, k := range []uint64{0, 100, 200} {
		off := pageHeader + i*internalEnt
		ek := encodeKey(k)
		copy(pg[off:], ek[:])
		pg[off+KeySize] = byte(i + 1)
	}
	cases := []struct {
		key   uint64
		child int64
	}{
		{0, 1}, {50, 1}, {99, 1}, {100, 2}, {150, 2}, {200, 3}, {1 << 30, 3},
	}
	for _, c := range cases {
		if got := searchInternal(pg, encodeKey(c.key)); got != c.child {
			t.Errorf("searchInternal(%d) = %d, want %d", c.key, got, c.child)
		}
	}
}
