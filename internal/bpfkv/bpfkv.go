// Package bpfkv reimplements BPF-KV, the key-value store used to
// evaluate XRP (Zhong et al., OSDI '22) and reused by the paper for
// Fig. 15: a B+-tree index of 512-byte nodes over an unsorted log of
// small objects, all in one large file, with caching disabled so
// every lookup costs a fixed chain of I/Os (6 index levels + 1 data
// read = 7 I/Os in the paper's configuration).
package bpfkv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/spdk"
	"repro/internal/storage"
)

// Geometry.
const (
	NodeSize = 512
	ValSize  = 64 // 8 B key + 56 B payload, as in BPF-KV
	MaxFan   = (NodeSize - 2) / 16
)

// Store describes a built BPF-KV image.
type Store struct {
	Path    string
	Objects uint64
	Fanout  int
	Levels  int // index levels; lookups cost Levels+1 I/Os

	levelStart []int64 // byte offset of each level's node array (0 = root level)
	levelNodes []int64 // node count per level
	logStart   int64
	FileBytes  int64
}

// ValueOf is the deterministic payload for key k.
func ValueOf(k uint64) [ValSize]byte {
	var v [ValSize]byte
	binary.LittleEndian.PutUint64(v[:], k)
	binary.LittleEndian.PutUint64(v[8:], k*0x9e3779b97f4a7c15)
	return v
}

// Plan computes the index geometry: the smallest fanout (>= 2) whose
// Levels-level index covers objects, mirroring the paper's 6-level
// index over 920 M objects at fanout ~31.
func Plan(objects uint64, levels int) (*Store, error) {
	if objects == 0 || levels < 1 {
		return nil, fmt.Errorf("bpfkv: bad plan")
	}
	fan := 2
	for pow(uint64(fan), levels) < objects {
		fan++
		if fan > MaxFan {
			return nil, fmt.Errorf("bpfkv: %d objects need more than %d levels", objects, levels)
		}
	}
	st := &Store{Objects: objects, Fanout: fan, Levels: levels}

	// Node counts bottom-up: the deepest index level points at
	// objects; each higher level points at the one below.
	counts := make([]int64, levels)
	n := int64(objects)
	for i := levels - 1; i >= 0; i-- {
		n = (n + int64(fan) - 1) / int64(fan)
		counts[i] = n
	}
	if counts[0] != 1 {
		// Fanout search guarantees the root fits one node.
		counts[0] = 1
	}
	st.levelNodes = counts
	st.levelStart = make([]int64, levels)
	off := int64(0)
	for i := 0; i < levels; i++ {
		st.levelStart[i] = off
		off += counts[i] * NodeSize
	}
	st.logStart = off
	st.FileBytes = off + int64(objects)*ValSize
	// Round to sector multiple.
	st.FileBytes = (st.FileBytes + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	return st, nil
}

func pow(b uint64, e int) uint64 {
	r := uint64(1)
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// BuildImage produces the file contents.
func (st *Store) BuildImage() []byte {
	img := make([]byte, st.FileBytes)
	le := binary.LittleEndian

	// Log: objects in key order (the "unsorted log" order is
	// irrelevant to the access path; dense keys keep the build
	// simple).
	for k := uint64(0); k < st.Objects; k++ {
		v := ValueOf(k)
		copy(img[st.logStart+int64(k)*ValSize:], v[:])
	}

	// Index levels bottom-up. Entry = (firstKey u64, ptr u64); at
	// the deepest level ptr is an object index, above it a node
	// index within the next level.
	keysPer := make([]uint64, st.Levels) // keys covered per node at each level
	span := uint64(st.Fanout)
	for i := st.Levels - 1; i >= 0; i-- {
		keysPer[i] = span
		span *= uint64(st.Fanout)
	}
	for lvl := st.Levels - 1; lvl >= 0; lvl-- {
		childSpan := keysPer[lvl] / uint64(st.Fanout)
		for node := int64(0); node < st.levelNodes[lvl]; node++ {
			base := st.levelStart[lvl] + node*NodeSize
			firstKey := uint64(node) * keysPer[lvl]
			cnt := 0
			for i := 0; i < st.Fanout; i++ {
				key := firstKey + uint64(i)*childSpan
				if key >= st.Objects {
					break
				}
				entOff := base + 2 + int64(cnt)*16
				le.PutUint64(img[entOff:], key)
				var ptr uint64
				if lvl == st.Levels-1 {
					ptr = key // object index
				} else {
					ptr = key / keysPer[lvl+1] // node index one level down
				}
				le.PutUint64(img[entOff+8:], ptr)
				cnt++
			}
			le.PutUint16(img[base:], uint16(cnt))
		}
	}
	return img
}

// searchNode returns the ptr of the last entry with key <= want.
func searchNode(node []byte, want uint64) uint64 {
	le := binary.LittleEndian
	n := int(le.Uint16(node))
	lo, hi, best := 0, n-1, 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if le.Uint64(node[2+mid*16:]) <= want {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return le.Uint64(node[2+best*16+8:])
}

// LoadFS writes the image into the kernel file system at path.
func (st *Store) LoadFS(p *sim.Proc, sys *core.System, path string) error {
	return st.LoadFSOn(p, sys, 0, path)
}

// LoadFSOn is LoadFS on topology node devIdx, for multi-SSD callers
// that keep one image per device; node 0 is exactly the historical
// LoadFS.
func (st *Store) LoadFSOn(p *sim.Proc, sys *core.System, devIdx int, path string) error {
	st.Path = path
	return sys.NewProcessOn(ext4.Root, devIdx).WriteFile(p, path, st.BuildImage())
}

// LoadSPDK writes the image into a raw SPDK region named path.
func (st *Store) LoadSPDK(p *sim.Proc, d *spdk.Driver, q *spdk.Queue, path string) error {
	st.Path = path
	img := st.BuildImage()
	r, err := d.CreateFile(path, int64(len(img)))
	if err != nil {
		return err
	}
	const chunk = 1 << 20
	for off := 0; off < len(img); off += chunk {
		end := off + chunk
		if end > len(img) {
			end = len(img)
		}
		if _, err := q.WriteAt(p, r, img[off:end], int64(off)); err != nil {
			return err
		}
	}
	return nil
}

// Conn is a per-thread handle. Exactly one of io / pr is used.
type Conn struct {
	st  *Store
	io  core.FileIO
	fd  int
	pr  *kernel.Process
	kfd int
	xrp bool
	buf []byte
}

// NewConn opens through a FileIO engine (sync, bypassd, spdk, ...).
func (st *Store) NewConn(p *sim.Proc, io core.FileIO) (*Conn, error) {
	fd, err := io.Open(p, st.Path, false)
	if err != nil {
		return nil, err
	}
	return &Conn{st: st, io: io, fd: fd, buf: make([]byte, NodeSize)}, nil
}

// NewXRPConn opens for in-driver chained lookups.
func (st *Store) NewXRPConn(p *sim.Proc, pr *kernel.Process) (*Conn, error) {
	fd, err := pr.Open(p, st.Path, false)
	if err != nil {
		return nil, err
	}
	return &Conn{st: st, pr: pr, kfd: fd, xrp: true, buf: make([]byte, NodeSize)}, nil
}

// logRead computes the sector-aligned read covering object idx.
func (st *Store) logRead(idx uint64) (off int64, inner int64) {
	byteOff := st.logStart + int64(idx)*ValSize
	off = byteOff &^ (storage.SectorSize - 1)
	return off, byteOff - off
}

// Get looks up key, returning its value and the number of I/Os.
func (c *Conn) Get(p *sim.Proc, key uint64) ([ValSize]byte, int, error) {
	var v [ValSize]byte
	if key >= c.st.Objects {
		return v, 0, fmt.Errorf("bpfkv: key %d out of range", key)
	}
	if c.xrp {
		return c.getXRP(p, key)
	}
	ios := 0
	ptr := uint64(0) // root node index
	for lvl := 0; lvl < c.st.Levels; lvl++ {
		off := c.st.levelStart[lvl] + int64(ptr)*NodeSize
		if _, err := c.io.Pread(p, c.fd, c.buf[:NodeSize], off); err != nil {
			return v, ios, err
		}
		ios++
		ptr = searchNode(c.buf[:NodeSize], key)
	}
	off, inner := c.st.logRead(ptr)
	if _, err := c.io.Pread(p, c.fd, c.buf[:storage.SectorSize], off); err != nil {
		return v, ios, err
	}
	ios++
	copy(v[:], c.buf[inner:inner+ValSize])
	return v, ios, nil
}

// getXRP performs the whole descent plus the data read as one
// in-driver chain: a single kernel crossing for 7 I/Os.
func (c *Conn) getXRP(p *sim.Proc, key uint64) ([ValSize]byte, int, error) {
	var v [ValSize]byte
	st := c.st
	var inner int64
	ios, err := c.pr.XRPChain(p, c.kfd, st.levelStart[0], NodeSize, c.buf, func(step int, b []byte) (int64, int64, bool) {
		if step == st.Levels {
			return 0, 0, true // data block fetched
		}
		ptr := searchNode(b[:NodeSize], key)
		if step == st.Levels-1 {
			off, in := st.logRead(ptr)
			inner = in
			return off, storage.SectorSize, false
		}
		return st.levelStart[step+1] + int64(ptr)*NodeSize, NodeSize, false
	})
	if err != nil {
		return v, ios, err
	}
	copy(v[:], c.buf[inner:inner+ValSize])
	return v, ios, nil
}
