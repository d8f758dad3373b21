// Package storage implements the persistent medium behind the
// simulated SSD: a sparse, sector-addressed block store holding real
// bytes. Every layer above (file system, key-value stores) moves
// actual data through it, so functional correctness is testable even
// though latencies are virtual.
//
// The store is deliberately unsynchronized: the simulation kernel
// guarantees only one simulated process executes at a time. The chunk
// pool below is the one shared piece of state, and sync.Pool makes it
// safe across the parallel experiment runner's machines.
package storage

import (
	"fmt"
	"sync"
)

// SectorSize is the device logical block size in bytes. The Intel
// Optane P5800X used in the paper exposes 512-byte sectors (the
// WiredTiger experiment configures 512 B B-tree pages to match).
const SectorSize = 512

// chunkSectors is the allocation granularity of the sparse store.
const chunkSectors = 128 // 64 KiB chunks

const chunkBytes = chunkSectors * SectorSize

// chunkPool recycles 64 KiB chunk arrays across stores. Allocating —
// and above all zeroing — a fresh chunk per first-touch write was the
// single largest CPU item in the simulator profile; pooled chunks are
// returned dirty and the writer zeroes only the bytes its write does
// not cover.
// The pool traffics in array pointers, not slices: a *[chunkBytes]byte
// fits in an interface without boxing a slice header, so putChunk does
// not allocate.
var chunkPool sync.Pool

func getChunk() []byte {
	if v := chunkPool.Get(); v != nil {
		return v.(*[chunkBytes]byte)[:]
	}
	return make([]byte, chunkBytes)
}

func putChunk(b []byte) {
	if len(b) != chunkBytes {
		return
	}
	chunkPool.Put((*[chunkBytes]byte)(b))
}

// Store is a sparse array of sectors. Unwritten sectors read as
// zeroes, like a freshly trimmed SSD.
type Store struct {
	sectors int64
	chunks  map[int64][]byte
}

// New returns a store with the given capacity in sectors.
func New(sectors int64) *Store {
	if sectors <= 0 {
		panic("storage: capacity must be positive")
	}
	return &Store{sectors: sectors, chunks: make(map[int64][]byte)}
}

// NewBytes returns a store with the given capacity in bytes, which
// must be a multiple of SectorSize.
func NewBytes(bytes int64) *Store {
	if bytes%SectorSize != 0 {
		panic("storage: capacity must be sector aligned")
	}
	return New(bytes / SectorSize)
}

// Sectors reports the capacity in sectors.
func (s *Store) Sectors() int64 { return s.sectors }

// check validates a sector range.
func (s *Store) check(sector, count int64) error {
	if sector < 0 || count < 0 || sector+count > s.sectors {
		return fmt.Errorf("storage: range [%d,+%d) outside capacity %d", sector, count, s.sectors)
	}
	return nil
}

// ReadSectors copies count sectors starting at sector into buf, which
// must be at least count*SectorSize long. The copy is coalesced per
// chunk: one map lookup and one memmove per 64 KiB run instead of per
// 512 B sector.
func (s *Store) ReadSectors(sector, count int64, buf []byte) error {
	if err := s.check(sector, count); err != nil {
		return err
	}
	if int64(len(buf)) < count*SectorSize {
		return fmt.Errorf("storage: buffer %d too small for %d sectors", len(buf), count)
	}
	for count > 0 {
		chunk, off := sector/chunkSectors, sector%chunkSectors
		n := chunkSectors - off // sectors available in this chunk
		if n > count {
			n = count
		}
		dst := buf[:n*SectorSize]
		if data, ok := s.chunks[chunk]; ok {
			copy(dst, data[off*SectorSize:])
		} else {
			clear(dst)
		}
		buf = buf[n*SectorSize:]
		sector += n
		count -= n
	}
	return nil
}

// WriteSectors copies count sectors from buf to the store, coalescing
// the copy per chunk. First-touch chunks come from the shared pool and
// only the bytes outside the written range are zeroed.
func (s *Store) WriteSectors(sector, count int64, buf []byte) error {
	if err := s.check(sector, count); err != nil {
		return err
	}
	if int64(len(buf)) < count*SectorSize {
		return fmt.Errorf("storage: buffer %d too small for %d sectors", len(buf), count)
	}
	for count > 0 {
		chunk, off := sector/chunkSectors, sector%chunkSectors
		n := chunkSectors - off
		if n > count {
			n = count
		}
		data, ok := s.chunks[chunk]
		if !ok {
			data = getChunk()
			clear(data[:off*SectorSize])
			clear(data[(off+n)*SectorSize:])
			s.chunks[chunk] = data
		}
		copy(data[off*SectorSize:(off+n)*SectorSize], buf)
		buf = buf[n*SectorSize:]
		sector += n
		count -= n
	}
	return nil
}

// Zero clears count sectors starting at sector (like an NVMe
// write-zeroes command). Chunks fully covered are dropped from the
// sparse map and recycled.
func (s *Store) Zero(sector, count int64) error {
	if err := s.check(sector, count); err != nil {
		return err
	}
	for count > 0 {
		chunk, off := sector/chunkSectors, sector%chunkSectors
		n := chunkSectors - off
		if n > count {
			n = count
		}
		if data, ok := s.chunks[chunk]; ok {
			if n == chunkSectors {
				delete(s.chunks, chunk)
				putChunk(data)
			} else {
				clear(data[off*SectorSize : (off+n)*SectorSize])
			}
		}
		sector += n
		count -= n
	}
	return nil
}

// Release returns every chunk to the shared pool and empties the
// store. Only an exclusive owner discarding the store (a benchmark
// harness tearing down its machine) may call it: after Release the
// store reads as all zeroes, and aliased Views see the same wipe.
func (s *Store) Release() {
	for k, v := range s.chunks {
		putChunk(v)
		delete(s.chunks, k)
	}
}

// Clone returns a deep copy, used to reuse prebuilt images (database
// files, file-system layouts) across benchmark runs.
func (s *Store) Clone() *Store {
	c := New(s.sectors)
	for k, v := range s.chunks {
		dup := getChunk()
		copy(dup, v)
		c.chunks[k] = dup
	}
	return c
}

// SectorIO is the sector-level access contract shared by a raw Store
// and windowed Views of it.
type SectorIO interface {
	ReadSectors(sector, count int64, buf []byte) error
	WriteSectors(sector, count int64, buf []byte) error
	Zero(sector, count int64) error
}

var _ SectorIO = (*Store)(nil)

// View exposes a contiguous window of a Store as an isolated sector
// space — the medium behind an SR-IOV virtual function: sector 0 of
// the view is Base of the parent, and nothing outside [Base,
// Base+Span) is reachable.
type View struct {
	St   *Store
	Base int64
	Span int64 // sectors
}

var _ SectorIO = (*View)(nil)

// NewView carves a window out of s.
func NewView(s *Store, base, span int64) (*View, error) {
	if base < 0 || span <= 0 || base+span > s.Sectors() {
		return nil, fmt.Errorf("storage: view [%d,+%d) outside store of %d sectors", base, span, s.Sectors())
	}
	return &View{St: s, Base: base, Span: span}, nil
}

func (v *View) check(sector, count int64) error {
	if sector < 0 || count < 0 || sector+count > v.Span {
		return fmt.Errorf("storage: view range [%d,+%d) outside window %d", sector, count, v.Span)
	}
	return nil
}

// ReadSectors implements SectorIO.
func (v *View) ReadSectors(sector, count int64, buf []byte) error {
	if err := v.check(sector, count); err != nil {
		return err
	}
	return v.St.ReadSectors(v.Base+sector, count, buf)
}

// WriteSectors implements SectorIO.
func (v *View) WriteSectors(sector, count int64, buf []byte) error {
	if err := v.check(sector, count); err != nil {
		return err
	}
	return v.St.WriteSectors(v.Base+sector, count, buf)
}

// Zero implements SectorIO.
func (v *View) Zero(sector, count int64) error {
	if err := v.check(sector, count); err != nil {
		return err
	}
	return v.St.Zero(v.Base+sector, count)
}
