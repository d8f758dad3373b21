package ext4

import (
	"encoding/binary"
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Metadata journaling (ordered mode, like the paper's ext4 setup):
// dirty metadata blocks are logged to the journal region with a
// commit record, then checkpointed to their home locations, then the
// journal is marked clean. Data blocks are never journaled. Mount
// replays any committed-but-not-checkpointed transaction; an
// uncommitted transaction is discarded, yielding metadata crash
// consistency without data consistency (paper §4.4).

// journal header block layout: magic(u32) pad(u32) seq(u64) n(u32),
// then n u64 target block numbers starting at byte 24.
const maxJournalTargets = (BlockSize - 24) / 8

// Commit journals all dirty metadata, checkpoints it, and applies
// deferred block frees. It is the FS's sync point (fsync, close,
// unmount).
//
// Commits on one file system run one at a time (SetCommitLock). A
// commit takes the dirty sets and stages a point-in-time image of
// them — extent chains, inode images, bitmap blocks — before its first
// yield. Whatever other procs dirty while it waits on I/O lands in
// fresh sets and goes out with the next commit.
func (fs *FS) Commit(p *sim.Proc) (err error) {
	if p != nil && fs.commitLock != nil {
		fs.commitLock.Acquire(p)
		defer fs.commitLock.Release()
	}
	var commitStart sim.Time
	if p != nil {
		commitStart = p.Now()
	}
	// The caller (fsync path) has already drained and flushed the
	// device, so blocks freed since the last commit can now be
	// released for reallocation and their cleared bits written as
	// part of this same transaction (paper §3.6).
	fs.applyPendingFree()

	staging := make(map[int64][]byte)
	order := make([]int64, 0, 16) // journal write order

	stage := func(blk int64) []byte {
		if img, ok := staging[blk]; ok {
			return img
		}
		img := make([]byte, BlockSize)
		staging[blk] = img
		order = append(order, blk)
		return img
	}

	inodes := fs.dirtyInodes
	fs.dirtyInodes = make(map[uint32]bool)
	var bitmap map[int64]bool
	defer func() {
		if err != nil {
			// Requeue what this commit took, so a later one retries it.
			for ino := range inodes {
				fs.dirtyInodes[ino] = true
			}
			for idx := range bitmap {
				fs.dirtyBitmap[idx] = true
			}
		}
	}()

	// Stage the dirty inodes' extent chains and snapshot their images.
	// Chain block allocation may dirty more bitmap blocks, so the
	// bitmap set is taken after.
	images := make(map[uint32][]byte, len(inodes))
	inodeBlocks := make(map[int64]bool)
	for ino := range inodes {
		in, ok := fs.inodes[ino]
		if !ok {
			continue
		}
		if err := fs.stageExtentChain(in, stage); err != nil {
			return err
		}
		img := make([]byte, InodeSize)
		in.marshalInto(img)
		images[ino] = img
		blk, _ := inodeLoc(&fs.sb, ino)
		inodeBlocks[blk] = true
	}
	bitmap = fs.dirtyBitmap
	fs.dirtyBitmap = make(map[int64]bool)
	for idx := range bitmap {
		img := stage(fs.sb.BitmapStart + idx)
		copy(img, fs.bitmap[idx*BlockSize:(idx+1)*BlockSize])
	}

	// Inode table blocks hold 16 inodes each: start from the on-disk
	// image and patch in every snapshotted inode of the block.
	for blk := range inodeBlocks {
		if err := fs.bio.ReadBlocks(p, blk, 1, stage(blk)); err != nil {
			return err
		}
	}
	for ino, img := range images {
		blk, off := inodeLoc(&fs.sb, ino)
		copy(staging[blk][off:], img)
	}

	if len(order) == 0 {
		return nil
	}

	// Write transactions in chunks bounded by the journal region.
	chunk := int(fs.sb.JournalBlocks) - 2
	if chunk > maxJournalTargets {
		chunk = maxJournalTargets
	}
	for start := 0; start < len(order); start += chunk {
		end := start + chunk
		if end > len(order) {
			end = len(order)
		}
		if err := fs.writeTransaction(p, order[start:end], staging); err != nil {
			return err
		}
	}

	// Drop freed inodes from the cache now that zeroed images are on
	// disk, unless dirtied again since the snapshot.
	for ino := range inodes {
		if in, ok := fs.inodes[ino]; ok && in.Mode == 0 && !fs.dirtyInodes[ino] {
			delete(fs.inodes, ino)
		}
	}
	fs.mCommits.Inc()
	if p != nil {
		fs.tr.Emit(p, "journal-commit", "ext4", commitStart, p.Now()-commitStart)
	}
	return nil
}

// stageExtentChain reconciles the overflow chain blocks backing the
// inode's extent list and stages their images.
func (fs *FS) stageExtentChain(in *Inode, stage func(int64) []byte) error {
	needed := chainCount(len(in.Extents))
	for len(in.chainBlocks) < needed {
		blk, err := fs.allocMetaBlock()
		if err != nil {
			return err
		}
		in.chainBlocks = append(in.chainBlocks, uint32(blk))
	}
	for len(in.chainBlocks) > needed {
		last := in.chainBlocks[len(in.chainBlocks)-1]
		in.chainBlocks = in.chainBlocks[:len(in.chainBlocks)-1]
		fs.deferFree([]Extent{{Start: last, Count: 1}})
	}
	if needed == 0 {
		in.extChain = 0
		return nil
	}
	in.extChain = in.chainBlocks[0]
	le := binary.LittleEndian
	rest := in.Extents[InlineExtents:]
	for i := 0; i < needed; i++ {
		img := stage(int64(in.chainBlocks[i]))
		for j := range img {
			img[j] = 0
		}
		if i+1 < needed {
			le.PutUint32(img[0:], in.chainBlocks[i+1])
		}
		n := len(rest) - i*extentsPerChainBlock
		if n > extentsPerChainBlock {
			n = extentsPerChainBlock
		}
		le.PutUint32(img[4:], uint32(n))
		for j := 0; j < n; j++ {
			e := rest[i*extentsPerChainBlock+j]
			off := 8 + j*12
			le.PutUint32(img[off:], e.FileBlock)
			le.PutUint32(img[off+4:], e.Start)
			le.PutUint32(img[off+8:], e.Count)
		}
	}
	return nil
}

// crashAt evaluates one injected journal crash point. A firing site
// freezes the file system exactly as a power loss at that stage
// would: the error aborts the commit, and recovery happens at the
// next mount from whatever subset of writes reached the medium.
func (fs *FS) crashAt(site string) error {
	if fs.inj.Fire(site) {
		return fmt.Errorf("%s: %w", site, ErrCrashed)
	}
	return nil
}

// writeTransaction logs one set of blocks, commits, checkpoints, and
// cleans the journal.
func (fs *FS) writeTransaction(p *sim.Proc, targets []int64, staging map[int64][]byte) error {
	if err := fs.crashAt(faults.SiteCrashPreJournal); err != nil {
		return err
	}
	fs.journalSeq++
	le := binary.LittleEndian

	header := make([]byte, BlockSize)
	le.PutUint32(header[0:], journalMagic)
	le.PutUint64(header[8:], fs.journalSeq)
	le.PutUint32(header[16:], uint32(len(targets)))
	for i, t := range targets {
		le.PutUint64(header[24+i*8:], uint64(t))
	}
	if err := fs.bio.WriteBlocks(p, fs.sb.JournalStart, 1, header); err != nil {
		return err
	}
	for i, t := range targets {
		if err := fs.bio.WriteBlocks(p, fs.sb.JournalStart+1+int64(i), 1, staging[t]); err != nil {
			return err
		}
	}
	if err := fs.crashAt(faults.SiteCrashPreCommit); err != nil {
		return err
	}
	commit := make([]byte, BlockSize)
	le.PutUint32(commit[0:], commitMagic)
	le.PutUint64(commit[8:], fs.journalSeq)
	if err := fs.bio.WriteBlocks(p, fs.sb.JournalStart+1+int64(len(targets)), 1, commit); err != nil {
		return err
	}
	// Barrier: journal must be durable before home writes begin.
	if err := fs.bio.Flush(p); err != nil {
		return err
	}
	if err := fs.crashAt(faults.SiteCrashPostCommit); err != nil {
		return err
	}

	for _, t := range targets {
		if err := fs.bio.WriteBlocks(p, t, 1, staging[t]); err != nil {
			return err
		}
	}
	if err := fs.bio.Flush(p); err != nil {
		return err
	}
	if err := fs.crashAt(faults.SiteCrashPostCheckpoint); err != nil {
		return err
	}

	clean := make([]byte, BlockSize)
	return fs.bio.WriteBlocks(p, fs.sb.JournalStart, 1, clean)
}

// replayJournal applies a committed-but-unchecked transaction found
// at mount time, untimed like the rest of Mount.
func (fs *FS) replayJournal() error {
	le := binary.LittleEndian
	header := make([]byte, BlockSize)
	if err := fs.bio.ReadBlocks(nil, fs.sb.JournalStart, 1, header); err != nil {
		return err
	}
	if le.Uint32(header[0:]) != journalMagic {
		return nil // clean journal
	}
	seq := le.Uint64(header[8:])
	n := int64(le.Uint32(header[16:]))
	if n <= 0 || n > int64(maxJournalTargets) || 1+n >= fs.sb.JournalBlocks {
		return nil // implausible header: treat as torn, discard
	}
	commit := make([]byte, BlockSize)
	if err := fs.bio.ReadBlocks(nil, fs.sb.JournalStart+1+n, 1, commit); err != nil {
		return err
	}
	if le.Uint32(commit[0:]) != commitMagic || le.Uint64(commit[8:]) != seq {
		// Crash happened mid-log: the transaction never committed,
		// so the home copies are the consistent state.
		clean := make([]byte, BlockSize)
		return fs.bio.WriteBlocks(nil, fs.sb.JournalStart, 1, clean)
	}
	// Replay.
	img := make([]byte, BlockSize)
	for i := int64(0); i < n; i++ {
		target := int64(le.Uint64(header[24+i*8:]))
		if err := fs.bio.ReadBlocks(nil, fs.sb.JournalStart+1+i, 1, img); err != nil {
			return err
		}
		if err := fs.bio.WriteBlocks(nil, target, 1, img); err != nil {
			return err
		}
	}
	if err := fs.bio.Flush(nil); err != nil {
		return err
	}
	fs.journalSeq = seq
	clean := make([]byte, BlockSize)
	return fs.bio.WriteBlocks(nil, fs.sb.JournalStart, 1, clean)
}
