package ext4

import (
	"fmt"

	"repro/internal/sim"
)

// ErrInvalidMove rejects renaming a directory into its own subtree
// (POSIX EINVAL), which would orphan the directory from the namespace
// while its blocks stay allocated.
var ErrInvalidMove = fmt.Errorf("ext4: cannot move directory into its own subtree")

// Rename moves the link at oldPath to newPath, replacing a regular
// file at the destination if one exists (POSIX rename semantics,
// minus cross-directory dir moves of non-empty directories, which the
// workloads don't need). The inode number is stable across the move,
// so BypassD mappings of the file are unaffected.
func (fs *FS) Rename(p *sim.Proc, oldPath, newPath string, c Cred) error {
	defer fs.lockNamespace(p)()
	oldParent, oldName, err := fs.nameiParent(p, oldPath, c)
	if err != nil {
		return err
	}
	newParent, newName, err := fs.nameiParent(p, newPath, c)
	if err != nil {
		return err
	}
	if !oldParent.allows(c, 3) || !newParent.allows(c, 3) {
		return ErrPerm
	}

	oldEntries, err := fs.ReadDir(p, oldParent)
	if err != nil {
		return err
	}
	srcIdx := -1
	for i, e := range oldEntries {
		if e.Name == oldName {
			srcIdx = i
			break
		}
	}
	if srcIdx < 0 {
		return ErrNotExist
	}
	srcIno := oldEntries[srcIdx].Ino
	src, err := fs.GetInode(p, srcIno)
	if err != nil {
		return err
	}
	if src.IsDir() {
		// splitPath already normalized "." and "..", so a component
		// prefix match means newPath lies inside the moving directory.
		oldComps, _ := splitPath(oldPath)
		newComps, _ := splitPath(newPath)
		if len(newComps) > len(oldComps) {
			inside := true
			for i, c := range oldComps {
				if newComps[i] != c {
					inside = false
					break
				}
			}
			if inside {
				return ErrInvalidMove
			}
		}
	}

	// A destination entry is replaced (files only).
	if dst, err := fs.namei(p, newPath, c); err == nil {
		if dst.Ino == srcIno {
			return nil // rename onto itself
		}
		if dst.IsDir() {
			return ErrIsDir
		}
		if err := fs.unlink(p, newPath, c); err != nil {
			return err
		}
		// Directory contents may have shifted: re-read below.
	} else if err != ErrNotExist {
		return err
	}

	now := fs.now()
	if oldParent == newParent {
		entries, err := fs.ReadDir(p, oldParent)
		if err != nil {
			return err
		}
		for i := range entries {
			if entries[i].Name == oldName && entries[i].Ino == srcIno {
				entries[i].Name = newName
				break
			}
		}
		if err := fs.writeDir(p, oldParent, entries); err != nil {
			return err
		}
		oldParent.Mtime = now
		fs.markDirty(oldParent)
		return nil
	}

	oldEntries, err = fs.ReadDir(p, oldParent)
	if err != nil {
		return err
	}
	kept := oldEntries[:0]
	for _, e := range oldEntries {
		if !(e.Name == oldName && e.Ino == srcIno) {
			kept = append(kept, e)
		}
	}
	if err := fs.writeDir(p, oldParent, kept); err != nil {
		return err
	}
	newEntries, err := fs.ReadDir(p, newParent)
	if err != nil {
		return err
	}
	newEntries = append(newEntries, DirEntry{Ino: srcIno, Name: newName})
	if err := fs.writeDir(p, newParent, newEntries); err != nil {
		return err
	}
	oldParent.Mtime = now
	newParent.Mtime = now
	src.Ctime = now
	fs.markDirty(oldParent)
	fs.markDirty(newParent)
	fs.markDirty(src)
	return nil
}

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
