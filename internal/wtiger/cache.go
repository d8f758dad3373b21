package wtiger

import (
	"container/list"

	"repro/internal/sim"
)

// pageCache is a byte-budgeted LRU page cache guarded by a single
// lock. The lock hold time per access is the engine's cache-access
// cost; at high thread counts this serialization becomes the
// bottleneck and hides the benefit of faster I/O, exactly the effect
// the paper reports for WiredTiger at 8-16 threads (§6.4).
type pageCache struct {
	lock   *sim.Resource
	budget int64
	used   int64
	lru    *list.List // front = most recent; values are *cacheEnt
	byPage map[int64]*list.Element
}

type cacheEnt struct {
	pg   int64
	data []byte
}

// newPageCacheOn pins the cache lock to the store's device shard, so
// a multi-SSD caller (the frontend service tier) can run one store
// per device under the parallel drain: each lock's holders and
// waiters all live on that device's shard.
func newPageCacheOn(s *sim.Sim, shard int, budget int64) *pageCache {
	return &pageCache{
		lock:   s.NewResourceOn(shard, "wt-cache", 1),
		budget: budget,
		lru:    list.New(),
		byPage: make(map[int64]*list.Element),
	}
}

// get probes the cache, charging the lock-held access cost.
func (c *pageCache) get(p *sim.Proc, pg int64, cost sim.Time, cpu *sim.CPUSet) ([]byte, bool) {
	c.lock.Acquire(p)
	cpu.Compute(p, cost)
	el, ok := c.byPage[pg]
	var data []byte
	if ok {
		c.lru.MoveToFront(el)
		data = el.Value.(*cacheEnt).data
	}
	c.lock.Release()
	return data, ok
}

// put inserts or refreshes a page, evicting LRU pages past budget.
func (c *pageCache) put(p *sim.Proc, pg int64, data []byte, cost sim.Time, cpu *sim.CPUSet) {
	c.lock.Acquire(p)
	cpu.Compute(p, cost)
	if el, ok := c.byPage[pg]; ok {
		el.Value.(*cacheEnt).data = data
		c.lru.MoveToFront(el)
	} else {
		el := c.lru.PushFront(&cacheEnt{pg: pg, data: data})
		c.byPage[pg] = el
		c.used += int64(len(data))
		for c.used > c.budget && c.lru.Len() > 1 {
			victim := c.lru.Back()
			ent := victim.Value.(*cacheEnt)
			c.lru.Remove(victim)
			delete(c.byPage, ent.pg)
			c.used -= int64(len(ent.data))
		}
	}
	c.lock.Release()
}
