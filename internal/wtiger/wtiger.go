// Package wtiger implements a WiredTiger-like storage engine for the
// paper's production-workload experiments (Figs. 13 and 14): a B-tree
// over a single file with 512-byte pages (matching the Optane block
// size, as the paper configures), an in-memory page cache with a
// byte budget and a contended access lock, delta-buffered inserts,
// and three read paths — the kernel interface, the BypassD interface,
// and XRP in-driver chained descent.
package wtiger

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Geometry (paper §6.4: 512 B pages, 16 B keys and values).
const (
	PageSize = 512
	KeySize  = 16
	ValSize  = 16

	pageHeader  = 3 // kind byte + count uint16
	internalEnt = KeySize + 4
	leafEnt     = KeySize + ValSize

	kindLeaf     = 'L'
	kindInternal = 'I'
)

// LeafCap and InternalCap are entries per page.
var (
	LeafCap     = (PageSize - pageHeader) / leafEnt
	InternalCap = (PageSize - pageHeader) / internalEnt
)

// encodeKey produces the fixed 16-byte big-endian key so byte order
// matches numeric order.
func encodeKey(k uint64) [KeySize]byte {
	var b [KeySize]byte
	binary.BigEndian.PutUint64(b[8:], k)
	return b
}

// Store is the shared engine state: tree metadata, page cache, and
// insert delta. Threads access it through per-thread Conns.
type Store struct {
	Path   string
	Pages  int64
	Root   int64
	Levels int // tree height including the leaf level
	Keys   uint64

	cache *pageCache
	delta map[uint64][ValSize]byte

	cpu *sim.CPUSet

	// Stats.
	CacheHits, CacheMisses int64
	IOs                    int64
}

// cacheAccessCost is charged under the cache lock per page
// probe/insert — the contention point that caps scaling at high
// thread counts (paper §6.4).
const cacheAccessCost = 250 * sim.Nanosecond

// Config for building a store.
type Config struct {
	Keys       uint64
	CacheBytes int64
	Path       string
}

// Build bulk-loads a B-tree with keys 0..Keys-1 into a new file using
// the kernel interface, and returns the shared Store. Values are a
// deterministic function of the key so reads can be verified.
func Build(p *sim.Proc, sys *core.System, cpu *sim.CPUSet, cfg Config) (*Store, error) {
	return BuildOn(p, sys, cpu, 0, cfg)
}

// BuildOn is Build on topology node devIdx: the store's file, and
// every I/O its connections issue, live on that device. Multi-SSD
// callers (the frontend service tier) build one store per device;
// node 0 is exactly the historical Build.
func BuildOn(p *sim.Proc, sys *core.System, cpu *sim.CPUSet, devIdx int, cfg Config) (*Store, error) {
	if cfg.Keys == 0 {
		return nil, fmt.Errorf("wtiger: empty store")
	}
	img, root, levels, pages := buildImage(cfg.Keys)

	if err := sys.NewProcessOn(ext4.Root, devIdx).WriteFile(p, cfg.Path, img); err != nil {
		return nil, err
	}
	shard := sys.M.Nodes[devIdx].Shard
	return &Store{
		Path:   cfg.Path,
		Pages:  pages,
		Root:   root,
		Levels: levels,
		Keys:   cfg.Keys,
		cache:  newPageCacheOn(sys.Sim, shard, cfg.CacheBytes),
		delta:  make(map[uint64][ValSize]byte),
		cpu:    cpu,
	}, nil
}

// ValueOf is the deterministic value stored for key k at build time.
func ValueOf(k uint64) [ValSize]byte {
	var v [ValSize]byte
	binary.LittleEndian.PutUint64(v[:], k*2654435761)
	binary.LittleEndian.PutUint64(v[8:], ^k)
	return v
}

// buildImage constructs the file image bottom-up.
func buildImage(keys uint64) (img []byte, root int64, levels int, pages int64) {
	type levelPage struct {
		firstKey [KeySize]byte
		pageNo   int64
	}
	var file [][]byte
	appendPage := func(pg []byte) int64 {
		file = append(file, pg)
		return int64(len(file) - 1)
	}
	// Page 0: reserved header.
	appendPage(make([]byte, PageSize))

	// Leaves.
	var level []levelPage
	for start := uint64(0); start < keys; start += uint64(LeafCap) {
		pg := make([]byte, PageSize)
		pg[0] = kindLeaf
		n := uint64(LeafCap)
		if start+n > keys {
			n = keys - start
		}
		binary.LittleEndian.PutUint16(pg[1:], uint16(n))
		for i := uint64(0); i < n; i++ {
			off := pageHeader + int(i)*leafEnt
			k := encodeKey(start + i)
			copy(pg[off:], k[:])
			v := ValueOf(start + i)
			copy(pg[off+KeySize:], v[:])
		}
		no := appendPage(pg)
		level = append(level, levelPage{firstKey: encodeKey(start), pageNo: no})
	}
	levels = 1

	// Internal levels.
	for len(level) > 1 {
		var next []levelPage
		for start := 0; start < len(level); start += InternalCap {
			pg := make([]byte, PageSize)
			pg[0] = kindInternal
			n := InternalCap
			if start+n > len(level) {
				n = len(level) - start
			}
			binary.LittleEndian.PutUint16(pg[1:], uint16(n))
			for i := 0; i < n; i++ {
				off := pageHeader + i*internalEnt
				copy(pg[off:], level[start+i].firstKey[:])
				binary.LittleEndian.PutUint32(pg[off+KeySize:], uint32(level[start+i].pageNo))
			}
			no := appendPage(pg)
			next = append(next, levelPage{firstKey: level[start].firstKey, pageNo: no})
		}
		level = next
		levels++
	}
	root = level[0].pageNo
	pages = int64(len(file))
	img = make([]byte, pages*PageSize)
	for i, pg := range file {
		copy(img[int64(i)*PageSize:], pg)
	}
	return img, root, levels, pages
}

// searchInternal finds the child page for key in an internal page.
func searchInternal(pg []byte, key [KeySize]byte) int64 {
	n := int(binary.LittleEndian.Uint16(pg[1:]))
	lo, hi := 0, n-1
	// Find the last entry with firstKey <= key.
	best := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		off := pageHeader + mid*internalEnt
		if bytes.Compare(pg[off:off+KeySize], key[:]) <= 0 {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	off := pageHeader + best*internalEnt
	return int64(binary.LittleEndian.Uint32(pg[off+KeySize:]))
}

// searchLeaf finds key's value slot in a leaf page.
func searchLeaf(pg []byte, key [KeySize]byte) (int, bool) {
	n := int(binary.LittleEndian.Uint16(pg[1:]))
	lo, hi := 0, n-1
	for lo <= hi {
		mid := (lo + hi) / 2
		off := pageHeader + mid*leafEnt
		switch bytes.Compare(pg[off:off+KeySize], key[:]) {
		case 0:
			return off + KeySize, true
		case -1:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false
}

// Mode selects a Conn's read path.
type Mode int

// Read paths.
const (
	ModeFileIO Mode = iota // any core.FileIO engine (sync, bypassd, ...)
	ModeXRP                // kernel-interface descent chained in the driver
)

// Conn is a per-thread connection.
type Conn struct {
	st   *Store
	mode Mode

	io core.FileIO
	fd int

	pr  *kernel.Process
	kfd int

	pageBuf []byte
}

// NewConn opens the store through a FileIO engine.
func (st *Store) NewConn(p *sim.Proc, io core.FileIO) (*Conn, error) {
	fd, err := io.Open(p, st.Path, true)
	if err != nil {
		return nil, err
	}
	return &Conn{st: st, mode: ModeFileIO, io: io, fd: fd, pageBuf: make([]byte, PageSize)}, nil
}

// NewXRPConn opens the store for XRP-accelerated descents.
func (st *Store) NewXRPConn(p *sim.Proc, pr *kernel.Process) (*Conn, error) {
	fd, err := pr.Open(p, st.Path, true)
	if err != nil {
		return nil, err
	}
	return &Conn{st: st, mode: ModeXRP, pr: pr, kfd: fd, pageBuf: make([]byte, PageSize)}, nil
}

// readPage fetches a page via the connection's I/O path.
func (c *Conn) readPage(p *sim.Proc, pg int64, buf []byte) error {
	c.st.IOs++
	var err error
	if c.mode == ModeXRP {
		_, err = c.pr.Pread(p, c.kfd, buf[:PageSize], pg*PageSize)
	} else {
		_, err = c.io.Pread(p, c.fd, buf[:PageSize], pg*PageSize)
	}
	return err
}

// writePage persists a page.
func (c *Conn) writePage(p *sim.Proc, pg int64, buf []byte) error {
	c.st.IOs++
	var err error
	if c.mode == ModeXRP {
		_, err = c.pr.Pwrite(p, c.kfd, buf[:PageSize], pg*PageSize)
	} else {
		_, err = c.io.Pwrite(p, c.fd, buf[:PageSize], pg*PageSize)
	}
	return err
}

// getPage returns the page via cache, fetching on miss. The returned
// slice must not be modified without re-inserting.
func (c *Conn) getPage(p *sim.Proc, pg int64) ([]byte, error) {
	st := c.st
	if data, ok := st.cache.get(p, pg, cacheAccessCost, st.cpu); ok {
		st.CacheHits++
		return data, nil
	}
	st.CacheMisses++
	buf := make([]byte, PageSize)
	if err := c.readPage(p, pg, buf); err != nil {
		return nil, err
	}
	st.cache.put(p, pg, buf, cacheAccessCost, st.cpu)
	return buf, nil
}

// descend walks from the root to the leaf containing key, returning
// the leaf page and its page number.
func (c *Conn) descend(p *sim.Proc, key [KeySize]byte) ([]byte, int64, error) {
	st := c.st
	pg := st.Root
	for {
		// Probe the cache at every level.
		data, ok := st.cache.get(p, pg, cacheAccessCost, st.cpu)
		if ok {
			st.CacheHits++
		} else {
			st.CacheMisses++
			if c.mode == ModeXRP {
				return c.xrpDescend(p, pg, key)
			}
			buf := make([]byte, PageSize)
			if err := c.readPage(p, pg, buf); err != nil {
				return nil, 0, err
			}
			st.cache.put(p, pg, buf, cacheAccessCost, st.cpu)
			data = buf
		}
		if data[0] == kindLeaf {
			return data, pg, nil
		}
		pg = searchInternal(data, key)
	}
}

// xrpDescend continues a descent from page pg entirely inside the
// NVMe driver: one kernel entry, chained resubmissions. Pages touched
// by the chain are fed to the cache (XRP's WiredTiger port keeps the
// engine cache populated; without this every descent would restart
// from an uncached root).
func (c *Conn) xrpDescend(p *sim.Proc, pg int64, key [KeySize]byte) ([]byte, int64, error) {
	st := c.st
	cur := pg
	leafPg := pg
	buf := make([]byte, PageSize)
	n, err := c.pr.XRPChain(p, c.kfd, pg*PageSize, PageSize, buf, func(step int, b []byte) (int64, int64, bool) {
		snapshot := make([]byte, PageSize)
		copy(snapshot, b[:PageSize])
		st.cache.put(p, cur, snapshot, cacheAccessCost, st.cpu)
		if b[0] == kindLeaf {
			leafPg = cur
			return 0, 0, true
		}
		cur = searchInternal(b, key)
		return cur * PageSize, PageSize, false
	})
	if err != nil {
		return nil, 0, err
	}
	st.IOs += int64(n)
	leaf := make([]byte, PageSize)
	copy(leaf, buf)
	return leaf, leafPg, nil
}

// Lookup returns the value for key.
func (c *Conn) Lookup(p *sim.Proc, key uint64) ([ValSize]byte, bool, error) {
	if v, ok := c.st.delta[key]; ok {
		// Recently inserted: served from the in-memory delta, no I/O
		// (why YCSB D barely touches the device, paper §6.4).
		c.st.cpu.Compute(p, cacheAccessCost)
		return v, true, nil
	}
	ek := encodeKey(key)
	leaf, _, err := c.descend(p, ek)
	if err != nil {
		return [ValSize]byte{}, false, err
	}
	off, ok := searchLeaf(leaf, ek)
	if !ok {
		return [ValSize]byte{}, false, nil
	}
	var v [ValSize]byte
	copy(v[:], leaf[off:])
	return v, true, nil
}

// Update overwrites key's value in place (read leaf, patch, write
// back — 512 B aligned, so BypassD serves it from userspace).
func (c *Conn) Update(p *sim.Proc, key uint64, val [ValSize]byte) error {
	if _, ok := c.st.delta[key]; ok {
		c.st.delta[key] = val
		return nil
	}
	ek := encodeKey(key)
	leaf, pg, err := c.descend(p, ek)
	if err != nil {
		return err
	}
	off, ok := searchLeaf(leaf, ek)
	if !ok {
		return fmt.Errorf("wtiger: update of missing key %d", key)
	}
	patched := make([]byte, PageSize)
	copy(patched, leaf)
	copy(patched[off:], val[:])
	if err := c.writePage(p, pg, patched); err != nil {
		return err
	}
	c.st.cache.put(p, pg, patched, cacheAccessCost, c.st.cpu)
	return nil
}

// Insert buffers a new key in the in-memory delta (LSM-style level
// zero); it is flushed outside the measured window.
func (c *Conn) Insert(p *sim.Proc, key uint64, val [ValSize]byte) {
	c.st.cpu.Compute(p, cacheAccessCost)
	c.st.delta[key] = val
}

// Scan reads n consecutive keys starting at key, touching successive
// leaf pages.
func (c *Conn) Scan(p *sim.Proc, key uint64, n int) (int, error) {
	ek := encodeKey(key)
	leaf, pg, err := c.descend(p, ek)
	if err != nil {
		return 0, err
	}
	got := int(binary.LittleEndian.Uint16(leaf[1:]))
	for got < n {
		pg++
		if pg >= c.st.Pages {
			break
		}
		next, err := c.getPage(p, pg)
		if err != nil {
			return got, err
		}
		if next[0] != kindLeaf {
			break
		}
		got += int(binary.LittleEndian.Uint16(next[1:]))
	}
	if got > n {
		got = n
	}
	return got, nil
}

// CacheHitRatio reports the cache hit fraction.
func (st *Store) CacheHitRatio() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}
