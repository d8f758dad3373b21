package ext4

import (
	"fmt"

	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Access checks whether c may open in for reading (and writing when
// write is set), mirroring the kernel's credential check at open().
func (fs *FS) Access(in *Inode, c Cred, write bool) error {
	want := uint16(4)
	if write {
		want |= 2
	}
	if !in.allows(c, want) {
		return ErrPerm
	}
	return nil
}

// ReadAt reads up to len(buf) bytes from byte offset off, returning
// the count read (short at EOF).
func (fs *FS) ReadAt(p *sim.Proc, in *Inode, off int64, buf []byte) (int, error) {
	if in.IsDir() && in.Size == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("ext4: negative offset")
	}
	if off >= in.Size {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > in.Size {
		n = in.Size - off
	}
	var done int64
	for done < n {
		pos := off + done
		fb := pos / BlockSize
		disk, ok := in.LookupBlock(fb)
		if !ok {
			return int(done), fmt.Errorf("%w: unmapped block %d of inode %d", ErrBadFS, fb, in.Ino)
		}
		// Extend the run while file blocks stay disk-contiguous.
		lastNeeded := (pos + (n - done) - 1) / BlockSize
		runBlocks := int64(1)
		for fb+runBlocks <= lastNeeded {
			nxt, ok := in.LookupBlock(fb + runBlocks)
			if !ok || nxt != disk+runBlocks {
				break
			}
			runBlocks++
		}
		inner := pos % BlockSize
		avail := runBlocks*BlockSize - inner
		want := n - done
		if want > avail {
			want = avail
		}
		if inner == 0 && want%BlockSize == 0 {
			if err := fs.bio.ReadBlocks(p, disk, want/BlockSize, buf[done:done+want]); err != nil {
				return int(done), err
			}
		} else if err := fs.readRun(p, disk, runBlocks, inner, buf[done:done+want]); err != nil {
			return int(done), err
		}
		done += want
	}
	return int(done), nil
}

// readRun reads the runBlocks-block run at disk block disk through a
// pooled scratch buffer and copies len(dst) bytes from byte inner of
// it into dst: the unaligned leg of ReadAt.
func (fs *FS) readRun(p *sim.Proc, disk, runBlocks, inner int64, dst []byte) error {
	tmp := storage.GetBuf(int(runBlocks * BlockSize))
	defer storage.PutBuf(tmp)
	if err := fs.bio.ReadBlocks(p, disk, runBlocks, tmp); err != nil {
		return err
	}
	copy(dst, tmp[inner:])
	return nil
}

// ensureAllocated grows the file's block coverage to blocks,
// zero-filling fresh allocations for confidentiality (paper §5.3)
// unless the caller promises to overwrite them fully.
// It returns the index of the first newly allocated file block.
func (fs *FS) ensureAllocated(p *sim.Proc, in *Inode, blocks int64, zero bool) (int64, error) {
	oldAlloc := in.AllocatedBlocks()
	if blocks <= oldAlloc {
		return oldAlloc, nil
	}
	goal := int64(-1)
	if n := len(in.Extents); n > 0 {
		last := in.Extents[n-1]
		goal = int64(last.Start) + int64(last.Count)
	}
	exts, err := fs.allocBlocks(blocks-oldAlloc, goal)
	if err != nil {
		return oldAlloc, err
	}
	for _, e := range exts {
		if zero {
			if err := fs.bio.ZeroBlocks(p, int64(e.Start), int64(e.Count)); err != nil {
				return oldAlloc, err
			}
		}
		in.appendExtent(int64(e.Start), int64(e.Count))
	}
	// Keep the cached file table in sync so every process that has
	// the file fmap()ed sees the new blocks immediately (shared
	// fragments, paper §4.1).
	if in.ft != nil {
		// Walk the extent list once instead of one LookupBlock binary
		// search per page; extents are sorted by FileBlock.
		for _, e := range in.Extents {
			lo, hi := int64(e.FileBlock), int64(e.FileBlock)+int64(e.Count)
			if hi <= oldAlloc || lo >= blocks {
				continue
			}
			if lo < oldAlloc {
				lo = oldAlloc
			}
			if hi > blocks {
				hi = blocks
			}
			disk := int64(e.Start) + (lo - int64(e.FileBlock))
			in.ft.SetRun(int(lo), disk*SectorsPerBlock, int(hi-lo))
		}
	}
	fs.markDirty(in)
	return oldAlloc, nil
}

// WriteAt writes data at byte offset off, allocating and zeroing
// blocks as needed, and extends the file size.
func (fs *FS) WriteAt(p *sim.Proc, in *Inode, off int64, data []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ext4: negative offset")
	}
	if len(data) == 0 {
		return 0, nil
	}
	end := off + int64(len(data))
	needBlocks := (end + BlockSize - 1) / BlockSize
	oldAlloc, err := fs.ensureAllocated(p, in, needBlocks, false)
	if err != nil {
		return 0, err
	}
	// Zero any fully skipped new blocks (sparse write past EOF).
	firstTouched := off / BlockSize
	if oldAlloc < firstTouched {
		for fb := oldAlloc; fb < firstTouched; fb++ {
			disk, _ := in.LookupBlock(fb)
			if err := fs.bio.ZeroBlocks(p, disk, 1); err != nil {
				return 0, err
			}
		}
	}

	var done int64
	n := int64(len(data))
	for done < n {
		pos := off + done
		fb := pos / BlockSize
		disk, ok := in.LookupBlock(fb)
		if !ok {
			return int(done), fmt.Errorf("%w: unmapped block %d", ErrBadFS, fb)
		}
		lastNeeded := (pos + (n - done) - 1) / BlockSize
		runBlocks := int64(1)
		for fb+runBlocks <= lastNeeded {
			nxt, ok := in.LookupBlock(fb + runBlocks)
			if !ok || nxt != disk+runBlocks {
				break
			}
			runBlocks++
		}
		inner := pos % BlockSize
		avail := runBlocks*BlockSize - inner
		want := n - done
		if want > avail {
			want = avail
		}
		if inner == 0 && want%BlockSize == 0 {
			if err := fs.bio.WriteBlocks(p, disk, want/BlockSize, data[done:done+want]); err != nil {
				return int(done), err
			}
		} else if err := fs.rmwBlocks(p, disk, fb, runBlocks, inner, oldAlloc, data[done:done+want]); err != nil {
			return int(done), err
		}
		done += want
	}
	if end > in.Size {
		in.Size = end
		fs.markDirty(in)
	}
	in.Mtime = fs.now()
	return int(done), nil
}

// rmwBlocks writes payload at byte inner of the runBlocks-block run
// that starts at file block fb (disk block disk) by read-modify-write
// through a pooled scratch buffer. Only the partial boundary blocks
// need their old contents, and only if they predate the write
// (fb+idx < oldAlloc); fresh blocks read as zero, so the bytes around
// the payload start cleared.
func (fs *FS) rmwBlocks(p *sim.Proc, disk, fb, runBlocks, inner, oldAlloc int64, payload []byte) error {
	tmp := storage.GetBuf(int(runBlocks * BlockSize))
	defer storage.PutBuf(tmp)
	end := inner + int64(len(payload))
	clear(tmp[:inner])
	clear(tmp[end:])
	readBoundary := func(idx int64) error {
		if fb+idx >= oldAlloc {
			return nil
		}
		return fs.bio.ReadBlocks(p, disk+idx, 1, tmp[idx*BlockSize:(idx+1)*BlockSize])
	}
	headIdx, tailIdx := int64(0), (end-1)/BlockSize
	if inner != 0 {
		if err := readBoundary(headIdx); err != nil {
			return err
		}
	}
	if end%BlockSize != 0 && (tailIdx != headIdx || inner == 0) {
		if err := readBoundary(tailIdx); err != nil {
			return err
		}
	}
	copy(tmp[inner:], payload)
	return fs.bio.WriteBlocks(p, disk, runBlocks, tmp)
}

// Fallocate extends the file to size bytes, allocating zeroed blocks
// — the §5.1 optimized-append primitive.
func (fs *FS) Fallocate(p *sim.Proc, in *Inode, size int64) error {
	if size <= in.Size {
		return nil
	}
	blocks := (size + BlockSize - 1) / BlockSize
	if _, err := fs.ensureAllocated(p, in, blocks, true); err != nil {
		return err
	}
	in.Size = size
	in.Mtime = fs.now()
	fs.markDirty(in)
	return nil
}

// Truncate sets the file size, freeing blocks on shrink (deferred, so
// in-flight direct I/O cannot race with reallocation) and allocating
// zeroed blocks on growth.
func (fs *FS) Truncate(p *sim.Proc, in *Inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("ext4: negative size")
	}
	switch {
	case size > in.Size:
		return fs.Fallocate(p, in, size)
	case size == in.Size:
		return nil
	}
	keepBlocks := (size + BlockSize - 1) / BlockSize
	freed := in.truncateExtents(keepBlocks)
	fs.deferFree(freed)
	if in.ft != nil {
		in.ft.Truncate(int(keepBlocks))
	}
	// Zero the tail of the final partial block so a later regrow
	// cannot expose stale bytes.
	if size%BlockSize != 0 {
		if disk, ok := in.LookupBlock(size / BlockSize); ok {
			tmp := make([]byte, BlockSize)
			if err := fs.bio.ReadBlocks(p, disk, 1, tmp); err != nil {
				return err
			}
			for i := size % BlockSize; i < BlockSize; i++ {
				tmp[i] = 0
			}
			if err := fs.bio.WriteBlocks(p, disk, 1, tmp); err != nil {
				return err
			}
		}
	}
	in.Size = size
	in.Mtime = fs.now()
	fs.markDirty(in)
	return nil
}

// Fsync makes the file durable: device flush, then metadata commit.
// This is the sync point at which deferred block frees become
// reusable (paper §3.6).
func (fs *FS) Fsync(p *sim.Proc, in *Inode) error {
	if err := fs.bio.Flush(p); err != nil {
		return err
	}
	return fs.Commit(p)
}

// Sync makes all outstanding data and metadata durable, like
// sync(2): device flush followed by a journal commit.
func (fs *FS) Sync(p *sim.Proc) error {
	if err := fs.bio.Flush(p); err != nil {
		return err
	}
	return fs.Commit(p)
}

// FileTable returns the inode's cached shared file table, building it
// from the extent map on first use. The second result reports whether
// this call built it (a cold fmap); the kernel charges the per-PTE
// construction cost in that case (Table 5).
func (fs *FS) FileTable(in *Inode) (ft *pagetable.FileTable, built bool) {
	if in.ft != nil {
		return in.ft, false
	}
	in.ft = pagetable.NewFileTable(fs.devID)
	for _, e := range in.Extents {
		in.ft.SetRun(int(e.FileBlock), int64(e.Start)*SectorsPerBlock, int(e.Count))
	}
	return in.ft, true
}

// HasFileTable reports whether the inode's file table is cached
// (warm) without building it.
func (in *Inode) HasFileTable() bool { return in.ft != nil }

// DropFileTable evicts the cached file table (tests/experiments).
func (in *Inode) DropFileTable() { in.ft = nil }
