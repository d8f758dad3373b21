package ext4

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Extent maps a contiguous run of file blocks to disk blocks.
type Extent struct {
	FileBlock uint32 // first file-relative block
	Start     uint32 // first disk block
	Count     uint32 // run length in blocks
}

// Inode is the in-memory inode, mirroring the on-disk layout plus the
// runtime state the kernel needs (cached file table, open tracking).
type Inode struct {
	Ino uint32
	// Dev is the owning device's identifier, stamped when the FS
	// materializes the inode (never stored on disk). Inode numbers are
	// per-device — two mounts can both hand out ino 12 — so kernel
	// state keyed by inode must key on (Dev, Ino), not Ino alone.
	Dev   uint8
	Mode  uint16
	UID   uint16
	GID   uint16
	Links uint16
	Size  int64
	Atime sim.Time
	Mtime sim.Time
	Ctime sim.Time

	// Extents is the full, sorted extent list. On disk the first
	// InlineExtents live in the inode; the rest spill into chained
	// extent blocks referenced by extChain.
	Extents     []Extent
	extChain    uint32   // on-disk overflow chain head (0 = none)
	chainBlocks []uint32 // blocks currently backing the chain

	// ft is the cached, shared file table (pre-populated FTE
	// fragments) living with the cached inode (paper §4.1). nil until
	// a cold fmap builds it.
	ft *pagetable.FileTable

	// Open-interface tracking used by the kernel for the sharing
	// rules of §4.5.2. Counts of current opens through each interface.
	BypassOpens int
	KernelOpens int
}

// IsDir reports whether the inode is a directory.
func (in *Inode) IsDir() bool { return in.Mode&ModeDir != 0 }

// Perm returns the permission bits.
func (in *Inode) Perm() uint16 { return in.Mode & PermMask }

// Blocks reports the number of blocks needed for Size bytes.
func (in *Inode) Blocks() int64 { return (in.Size + BlockSize - 1) / BlockSize }

// AllocatedBlocks reports the total blocks covered by extents (can
// exceed Blocks() after fallocate).
func (in *Inode) AllocatedBlocks() int64 {
	var n int64
	for _, e := range in.Extents {
		n += int64(e.Count)
	}
	return n
}

// marshalInto writes the inode's on-disk representation (without the
// overflow chain contents) into buf, which must be >= InodeSize.
func (in *Inode) marshalInto(buf []byte) {
	le := binary.LittleEndian
	for i := 0; i < InodeSize; i++ {
		buf[i] = 0
	}
	le.PutUint16(buf[0:], in.Mode)
	le.PutUint16(buf[2:], in.UID)
	le.PutUint16(buf[4:], in.GID)
	le.PutUint16(buf[6:], in.Links)
	le.PutUint64(buf[8:], uint64(in.Size))
	le.PutUint64(buf[16:], uint64(in.Atime))
	le.PutUint64(buf[24:], uint64(in.Mtime))
	le.PutUint64(buf[32:], uint64(in.Ctime))
	n := len(in.Extents)
	if n > InlineExtents {
		n = InlineExtents
	}
	le.PutUint16(buf[40:], uint16(n))
	le.PutUint32(buf[44:], in.extChain)
	for i := 0; i < n; i++ {
		off := 48 + i*12
		le.PutUint32(buf[off:], in.Extents[i].FileBlock)
		le.PutUint32(buf[off+4:], in.Extents[i].Start)
		le.PutUint32(buf[off+8:], in.Extents[i].Count)
	}
}

// unmarshalInode parses the fixed part of an inode.
func unmarshalInode(ino uint32, buf []byte) *Inode {
	le := binary.LittleEndian
	in := &Inode{
		Ino:      ino,
		Mode:     le.Uint16(buf[0:]),
		UID:      le.Uint16(buf[2:]),
		GID:      le.Uint16(buf[4:]),
		Links:    le.Uint16(buf[6:]),
		Size:     int64(le.Uint64(buf[8:])),
		Atime:    sim.Time(le.Uint64(buf[16:])),
		Mtime:    sim.Time(le.Uint64(buf[24:])),
		Ctime:    sim.Time(le.Uint64(buf[32:])),
		extChain: le.Uint32(buf[44:]),
	}
	n := int(le.Uint16(buf[40:]))
	if n > InlineExtents {
		n = InlineExtents
	}
	for i := 0; i < n; i++ {
		off := 48 + i*12
		in.Extents = append(in.Extents, Extent{
			FileBlock: le.Uint32(buf[off:]),
			Start:     le.Uint32(buf[off+4:]),
			Count:     le.Uint32(buf[off+8:]),
		})
	}
	return in
}

// GetInode loads an inode through the cache. The extent overflow
// chain is read from disk on first load — this is what makes a later
// fmap() "cold" vs "warm" (paper §4.1, Table 5).
func (fs *FS) GetInode(p *sim.Proc, ino uint32) (*Inode, error) {
	if ino == 0 || ino > uint32(fs.sb.InodeCount) {
		return nil, fmt.Errorf("%w: inode %d", ErrBadFS, ino)
	}
	if in, ok := fs.inodes[ino]; ok {
		return in, nil
	}
	blk, off := inodeLoc(&fs.sb, ino)
	buf := make([]byte, BlockSize)
	if err := fs.bio.ReadBlocks(p, blk, 1, buf); err != nil {
		return nil, err
	}
	in := unmarshalInode(ino, buf[off:off+InodeSize])
	if in.Mode == 0 {
		return nil, ErrNotExist
	}
	if err := fs.loadExtentChain(p, in); err != nil {
		return nil, err
	}
	in.Dev = fs.devID
	fs.inodes[ino] = in
	return in, nil
}

// markDirty queues the inode for the next journal commit.
func (fs *FS) markDirty(in *Inode) {
	fs.dirtyInodes[in.Ino] = true
}

// allocInode claims a free inode number.
func (fs *FS) allocInode() (uint32, error) {
	if len(fs.freeInodes) == 0 {
		return 0, ErrNoInodes
	}
	ino := fs.freeInodes[len(fs.freeInodes)-1]
	fs.freeInodes = fs.freeInodes[:len(fs.freeInodes)-1]
	return ino, nil
}

// freeInode releases an inode number and clears its cache entry.
func (fs *FS) freeInode(in *Inode) {
	in.Mode = 0
	in.Extents = nil
	in.extChain = 0
	in.Size = 0
	in.ft = nil
	delete(fs.dirCache, in.Ino)
	fs.markDirty(in)
	fs.freeInodes = append(fs.freeInodes, in.Ino)
	// Keep it cached until commit writes the zeroed image; the cache
	// entry is dropped at commit time.
}
