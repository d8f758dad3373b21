// Package ext4 implements the kernel file system of the BypassD
// reproduction: an extent-based file system in the spirit of ext4
// (without data journaling, matching the paper's configuration, §4).
//
// It has a real on-disk format — superblock, block bitmap, inode
// table with inline extent lists and overflow chains, hierarchical
// directories, and a write-ahead metadata journal with crash
// recovery — and carries the BypassD-specific responsibilities:
//
//   - virtualizing block addresses by building per-inode shared File
//     Table fragments (cached in the VFS inode, paper §4.1);
//   - zeroing newly allocated blocks before exposing them (paper §4.1,
//     §5.3 confidentiality rule);
//   - delaying the reuse of freed blocks until a sync point, closing
//     the revocation/in-flight-I/O race (paper §3.6).
package ext4

import (
	"encoding/binary"
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// On-disk geometry.
const (
	BlockSize       = 4096
	SectorsPerBlock = BlockSize / storage.SectorSize
	InodeSize       = 256
	InodesPerBlock  = BlockSize / InodeSize
	InlineExtents   = 12
	MaxNameLen      = 255
	RootIno         = 1

	superMagic   = 0xBD5F2024
	journalMagic = 0xBD5F10C5
	commitMagic  = 0xBD5FC000
)

// Mode bits.
const (
	ModeFile uint16 = 0x8000
	ModeDir  uint16 = 0x4000
	PermMask uint16 = 0x01ff
)

// Common errors.
var (
	ErrNotExist   = fmt.Errorf("ext4: no such file or directory")
	ErrExist      = fmt.Errorf("ext4: file exists")
	ErrPerm       = fmt.Errorf("ext4: permission denied")
	ErrIsDir      = fmt.Errorf("ext4: is a directory")
	ErrNotDir     = fmt.Errorf("ext4: not a directory")
	ErrNoSpace    = fmt.Errorf("ext4: no space left on device")
	ErrNoInodes   = fmt.Errorf("ext4: no free inodes")
	ErrNotEmpty   = fmt.Errorf("ext4: directory not empty")
	ErrNameTooBig = fmt.Errorf("ext4: name too long")
	ErrBadFS      = fmt.Errorf("ext4: corrupt file system")
)

// Super is the superblock.
type Super struct {
	Magic         uint32
	BlockCount    int64
	InodeCount    int32
	BitmapStart   int64
	BitmapBlocks  int64
	InodeStart    int64
	InodeBlocks   int64
	JournalStart  int64
	JournalBlocks int64
	DataStart     int64
}

func (sb *Super) marshal() []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sb.Magic)
	le.PutUint64(buf[4:], uint64(sb.BlockCount))
	le.PutUint32(buf[12:], uint32(sb.InodeCount))
	le.PutUint64(buf[16:], uint64(sb.BitmapStart))
	le.PutUint64(buf[24:], uint64(sb.BitmapBlocks))
	le.PutUint64(buf[32:], uint64(sb.InodeStart))
	le.PutUint64(buf[40:], uint64(sb.InodeBlocks))
	le.PutUint64(buf[48:], uint64(sb.JournalStart))
	le.PutUint64(buf[56:], uint64(sb.JournalBlocks))
	le.PutUint64(buf[64:], uint64(sb.DataStart))
	return buf
}

func (sb *Super) unmarshal(buf []byte) error {
	le := binary.LittleEndian
	sb.Magic = le.Uint32(buf[0:])
	if sb.Magic != superMagic {
		return fmt.Errorf("%w: bad superblock magic %#x", ErrBadFS, sb.Magic)
	}
	sb.BlockCount = int64(le.Uint64(buf[4:]))
	sb.InodeCount = int32(le.Uint32(buf[12:]))
	sb.BitmapStart = int64(le.Uint64(buf[16:]))
	sb.BitmapBlocks = int64(le.Uint64(buf[24:]))
	sb.InodeStart = int64(le.Uint64(buf[32:]))
	sb.InodeBlocks = int64(le.Uint64(buf[40:]))
	sb.JournalStart = int64(le.Uint64(buf[48:]))
	sb.JournalBlocks = int64(le.Uint64(buf[56:]))
	sb.DataStart = int64(le.Uint64(buf[64:]))
	return nil
}

// Options configures mkfs.
type Options struct {
	Blocks        int64 // total FS blocks (device capacity / 4 KiB)
	Inodes        int32 // inode table size
	JournalBlocks int64 // journal region size
}

// DefaultOptions sizes a file system for the given capacity in bytes.
func DefaultOptions(capacityBytes int64) Options {
	return Options{
		Blocks:        capacityBytes / BlockSize,
		Inodes:        4096,
		JournalBlocks: 1024,
	}
}

// FS is a mounted file system instance.
type FS struct {
	bio BlockIO
	sb  Super

	devID uint8
	nowFn func() sim.Time

	bitmap      []byte
	dirtyBitmap map[int64]bool // dirty bitmap block indices (relative)
	allocRotor  int64

	inodes      map[uint32]*Inode
	dirtyInodes map[uint32]bool
	freeInodes  []uint32
	dirCache    map[uint32][]DirEntry // dcache: dir ino -> entries

	// pendingFree holds extents freed since the last commit; they are
	// not reusable until the journal commits, closing the race between
	// FTE invalidation and in-flight direct I/O (paper §3.6).
	pendingFree []Extent

	journalSeq uint64
	// commitLock serializes Commit across procs (nil: callers never
	// overlap commits, e.g. single-proc harnesses).
	commitLock *sim.Resource
	// nsLock serializes namespace changes — create, mkdir, unlink,
	// rename — across procs (nil: callers never overlap them).
	nsLock *sim.Resource

	// inj is the machine's fault plane (nil = inert); it arms the
	// journal crash points in writeTransaction.
	inj *faults.Injector

	// tr is the machine's span tracer (nil = inert); Commit emits a
	// journal-commit span on it.
	tr *trace.Tracer

	mCommits *metrics.Counter
}

// SetObservers attaches the machine's fault plane and span tracer and
// resolves the commit counter from reg; nil arguments are inert. The
// machine calls it at boot, right after the mount.
func (fs *FS) SetObservers(inj *faults.Injector, tr *trace.Tracer, reg *metrics.Registry) {
	fs.inj, fs.tr, fs.mCommits = inj, tr, reg.Counter("ext4_commits_total")
}

// SetCommitLock installs the lock that serializes journal commits. A
// commit yields on I/O, and a second proc's commit in that window
// would interleave with its transaction; the kernel passes a
// one-unit resource resident on the device's event shard.
func (fs *FS) SetCommitLock(l *sim.Resource) { fs.commitLock = l }

// SetNamespaceLock installs the lock that serializes namespace
// changes. Each one reads a directory, yields on I/O, and writes the
// directory back, so two overlapping changes would lose one's entry;
// the kernel passes a one-unit resource resident on the device's
// event shard.
func (fs *FS) SetNamespaceLock(l *sim.Resource) { fs.nsLock = l }

// lockNamespace takes the namespace lock for p, if one is installed,
// and returns its release.
func (fs *FS) lockNamespace(p *sim.Proc) (unlock func()) {
	if p == nil || fs.nsLock == nil {
		return func() {}
	}
	fs.nsLock.Acquire(p)
	return fs.nsLock.Release
}

// ReleaseResources returns the file system's recyclable structures —
// the block bitmap and every cached inode's file-table fragments — to
// their shared pools. Only a teardown path that owns the whole
// machine (core.System.Close → Machine.ReleaseResources) may call it;
// the FS must not be used afterwards.
func (fs *FS) ReleaseResources() {
	if fs.bitmap != nil {
		storage.PutBuf(fs.bitmap)
		fs.bitmap = nil
	}
	for _, in := range fs.inodes {
		if in.ft != nil {
			in.ft.Release()
			in.ft = nil
		}
	}
}

// Mkfs formats the medium and returns nothing; mount afterwards.
func Mkfs(bio BlockIO, opt Options) error {
	if opt.Blocks < 64 {
		return fmt.Errorf("ext4: %d blocks too small", opt.Blocks)
	}
	bitmapBlocks := (opt.Blocks + BlockSize*8 - 1) / (BlockSize * 8)
	inodeBlocks := (int64(opt.Inodes) + InodesPerBlock - 1) / InodesPerBlock
	sb := Super{
		Magic:         superMagic,
		BlockCount:    opt.Blocks,
		InodeCount:    opt.Inodes,
		BitmapStart:   1,
		BitmapBlocks:  bitmapBlocks,
		InodeStart:    1 + bitmapBlocks,
		InodeBlocks:   inodeBlocks,
		JournalStart:  1 + bitmapBlocks + inodeBlocks,
		JournalBlocks: opt.JournalBlocks,
		DataStart:     1 + bitmapBlocks + inodeBlocks + opt.JournalBlocks,
	}
	if sb.DataStart >= opt.Blocks {
		return fmt.Errorf("ext4: metadata (%d blocks) exceeds device (%d)", sb.DataStart, opt.Blocks)
	}
	if err := bio.WriteBlocks(nil, 0, 1, sb.marshal()); err != nil {
		return err
	}

	// Bitmap: metadata blocks used, everything else free, tail blocks
	// beyond BlockCount marked used. Pooled scratch: formatted once,
	// written out, returned.
	bitmap := storage.GetBuf(int(bitmapBlocks * BlockSize))
	defer storage.PutBuf(bitmap)
	clear(bitmap)
	for b := int64(0); b < sb.DataStart; b++ {
		bitmap[b/8] |= 1 << (b % 8)
	}
	for b := opt.Blocks; b < bitmapBlocks*BlockSize*8; b++ {
		bitmap[b/8] |= 1 << (b % 8)
	}
	if err := bio.WriteBlocks(nil, sb.BitmapStart, bitmapBlocks, bitmap); err != nil {
		return err
	}

	// Inode table: all zero except the root directory.
	zero := make([]byte, BlockSize)
	for b := int64(0); b < inodeBlocks; b++ {
		if err := bio.WriteBlocks(nil, sb.InodeStart+b, 1, zero); err != nil {
			return err
		}
	}
	root := &Inode{
		Ino:   RootIno,
		Mode:  ModeDir | 0o755,
		Links: 2,
	}
	blk, off := inodeLoc(&sb, RootIno)
	buf := make([]byte, BlockSize)
	if err := bio.ReadBlocks(nil, blk, 1, buf); err != nil {
		return err
	}
	root.marshalInto(buf[off:])
	if err := bio.WriteBlocks(nil, blk, 1, buf); err != nil {
		return err
	}

	// Clean journal header.
	if err := bio.WriteBlocks(nil, sb.JournalStart, 1, zero); err != nil {
		return err
	}
	return nil
}

// inodeLoc returns the block and byte offset of inode ino.
func inodeLoc(sb *Super, ino uint32) (blk int64, off int) {
	idx := int64(ino - 1)
	return sb.InodeStart + idx/InodesPerBlock, int(idx%InodesPerBlock) * InodeSize
}

// Mount reads the superblock, replays the journal if needed, and
// builds the in-memory caches. It reads and writes through bio with a
// nil proc, untimed: machines mount at boot, before any proc runs, and
// install their timed BlockIO afterwards (SetBlockIO).
func Mount(bio BlockIO, devID uint8, now func() sim.Time) (*FS, error) {
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	buf := make([]byte, BlockSize)
	if err := bio.ReadBlocks(nil, 0, 1, buf); err != nil {
		return nil, err
	}
	fs := &FS{
		bio:         bio,
		devID:       devID,
		nowFn:       now,
		dirtyBitmap: make(map[int64]bool),
		inodes:      make(map[uint32]*Inode),
		dirtyInodes: make(map[uint32]bool),
		dirCache:    make(map[uint32][]DirEntry),
	}
	if err := fs.sb.unmarshal(buf); err != nil {
		return nil, err
	}
	if err := fs.replayJournal(); err != nil {
		return nil, err
	}

	// Pooled and recycled dirty: ReadBlocks overwrites every byte.
	fs.bitmap = storage.GetBuf(int(fs.sb.BitmapBlocks * BlockSize))
	if err := bio.ReadBlocks(nil, fs.sb.BitmapStart, fs.sb.BitmapBlocks, fs.bitmap); err != nil {
		return nil, err
	}
	fs.allocRotor = fs.sb.DataStart

	// Scan the inode table for free slots, reading in batches: a mount
	// happens per machine per sweep cell, so per-block ReadBlocks round
	// trips add up.
	const scanBatch = 32
	tbl := storage.GetBuf(scanBatch * BlockSize)
	defer storage.PutBuf(tbl)
	for b := int64(0); b < fs.sb.InodeBlocks; b += scanBatch {
		n := fs.sb.InodeBlocks - b
		if n > scanBatch {
			n = scanBatch
		}
		if err := bio.ReadBlocks(nil, fs.sb.InodeStart+b, n, tbl[:n*BlockSize]); err != nil {
			return nil, err
		}
		for i := 0; i < int(n)*InodesPerBlock; i++ {
			ino := uint32(b*InodesPerBlock+int64(i)) + 1
			if ino > uint32(fs.sb.InodeCount) {
				break
			}
			mode := binary.LittleEndian.Uint16(tbl[i*InodeSize:])
			if mode == 0 && ino != RootIno {
				fs.freeInodes = append(fs.freeInodes, ino)
			}
		}
	}
	return fs, nil
}

// Super returns a copy of the superblock.
func (fs *FS) Super() Super { return fs.sb }

// SetBlockIO swaps the block-device implementation. The kernel mounts
// through an untimed path at boot and then installs its timed,
// cost-charging BlockIO for runtime operation.
func (fs *FS) SetBlockIO(bio BlockIO) { fs.bio = bio }

// now returns the current virtual time for timestamps.
func (fs *FS) now() sim.Time { return fs.nowFn() }
