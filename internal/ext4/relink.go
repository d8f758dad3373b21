package ext4

import "repro/internal/sim"

// Relink atomically moves the blocks of src beyond dst's current end
// — SplitFS's relink primitive, which the paper (§5.1) names as the
// more intrusive alternative for fast appends: an application appends
// into a staging file from userspace, then relinks the staged blocks
// into the target with one metadata operation and no data copy.
//
// src must cover whole blocks (its size a multiple of the block
// size... the tail is permitted to be partial only when dst ends on a
// block boundary, which is the staging pattern). After the call src
// is empty; dst has grown by src's size.
func (fs *FS) Relink(p *sim.Proc, src, dst *Inode) error {
	if src.IsDir() || dst.IsDir() {
		return ErrIsDir
	}
	if dst.Size%BlockSize != 0 && src.Size > 0 {
		return ErrBadFS // staging append requires block-aligned target end
	}
	moved := src.Extents
	srcSize := src.Size

	// Graft the extents onto dst, preserving file-block continuity.
	for _, e := range moved {
		dst.appendExtent(int64(e.Start), int64(e.Count))
	}
	if dst.ft != nil {
		// Extend dst's shared file table so existing mappings see the
		// relinked blocks immediately.
		m := dst.BlockMap()
		for fb := dst.AllocatedBlocks() - int64(lenBlocks(moved)); fb < int64(len(m)); fb++ {
			dst.ft.SetPage(int(fb), m[fb]*SectorsPerBlock)
		}
	}
	dst.Size += srcSize
	dst.Mtime = fs.now()

	// Empty the staging file: its blocks now belong to dst, so they
	// are NOT freed.
	src.Extents = nil
	src.Size = 0
	if src.ft != nil {
		src.ft.Truncate(0)
	}
	src.Mtime = fs.now()

	fs.markDirty(src)
	fs.markDirty(dst)
	return nil
}

func lenBlocks(exts []Extent) (n uint32) {
	for _, e := range exts {
		n += e.Count
	}
	return n
}
