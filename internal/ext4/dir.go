package ext4

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Directories store a flat sequence of entries in their file data:
// ino(u32) nameLen(u16) name. Directory updates rewrite the entry
// list; directories are small compared to the data files the paper's
// workloads use.

// DirEntry is one directory entry.
type DirEntry struct {
	Ino  uint32
	Name string
}

// Cred identifies the caller for permission checks.
type Cred struct {
	UID uint16
	GID uint16
}

// Root is the superuser credential.
var Root = Cred{UID: 0, GID: 0}

// allows reports whether c may access in with the requested rwx bits
// (4=read, 2=write, 1=exec).
func (in *Inode) allows(c Cred, want uint16) bool {
	if c.UID == 0 {
		return true
	}
	perm := in.Perm()
	var bits uint16
	switch {
	case c.UID == in.UID:
		bits = perm >> 6
	case c.GID == in.GID:
		bits = perm >> 3
	default:
		bits = perm
	}
	return bits&want == want
}

// ReadDir returns the entries of directory in. Entries are cached in
// memory (the dcache) once read; the caller receives a fresh copy.
func (fs *FS) ReadDir(p *sim.Proc, in *Inode) ([]DirEntry, error) {
	if !in.IsDir() {
		return nil, ErrNotDir
	}
	if cached, ok := fs.dirCache[in.Ino]; ok {
		return append([]DirEntry(nil), cached...), nil
	}
	data := make([]byte, in.Size)
	if _, err := fs.ReadAt(p, in, 0, data); err != nil {
		return nil, err
	}
	var out []DirEntry
	le := binary.LittleEndian
	for off := 0; off+6 <= len(data); {
		ino := le.Uint32(data[off:])
		nl := int(le.Uint16(data[off+4:]))
		off += 6
		if off+nl > len(data) {
			return nil, fmt.Errorf("%w: torn directory entry", ErrBadFS)
		}
		out = append(out, DirEntry{Ino: ino, Name: string(data[off : off+nl])})
		off += nl
	}
	fs.dirCache[in.Ino] = out
	return append([]DirEntry(nil), out...), nil
}

// writeDir replaces directory in's entry list.
func (fs *FS) writeDir(p *sim.Proc, in *Inode, entries []DirEntry) error {
	var buf []byte
	var scratch [6]byte
	le := binary.LittleEndian
	for _, e := range entries {
		le.PutUint32(scratch[0:], e.Ino)
		le.PutUint16(scratch[4:], uint16(len(e.Name)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, e.Name...)
	}
	if int64(len(buf)) < in.Size {
		if err := fs.Truncate(p, in, int64(len(buf))); err != nil {
			return err
		}
	}
	if len(buf) > 0 {
		if _, err := fs.WriteAt(p, in, 0, buf); err != nil {
			return err
		}
	}
	fs.dirCache[in.Ino] = append([]DirEntry(nil), entries...)
	return nil
}

// splitPath normalizes an absolute path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("ext4: path %q not absolute", path)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, ErrNameTooBig
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// namei resolves path to an inode, enforcing execute permission on
// every traversed directory.
func (fs *FS) namei(p *sim.Proc, path string, c Cred) (*Inode, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	in, err := fs.GetInode(p, RootIno)
	if err != nil {
		return nil, err
	}
	for _, name := range comps {
		if !in.IsDir() {
			return nil, ErrNotDir
		}
		if !in.allows(c, 1) {
			return nil, ErrPerm
		}
		entries, err := fs.ReadDir(p, in)
		if err != nil {
			return nil, err
		}
		var next uint32
		for _, e := range entries {
			if e.Name == name {
				next = e.Ino
				break
			}
		}
		if next == 0 {
			return nil, ErrNotExist
		}
		if in, err = fs.GetInode(p, next); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// nameiParent resolves the parent directory of path and returns it
// with the final component.
func (fs *FS) nameiParent(p *sim.Proc, path string, c Cred) (*Inode, string, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("ext4: cannot operate on /")
	}
	parentPath := "/" + strings.Join(comps[:len(comps)-1], "/")
	parent, err := fs.namei(p, parentPath, c)
	if err != nil {
		return nil, "", err
	}
	if !parent.IsDir() {
		return nil, "", ErrNotDir
	}
	return parent, comps[len(comps)-1], nil
}

// create makes a new inode linked at path.
func (fs *FS) create(p *sim.Proc, path string, mode uint16, c Cred) (*Inode, error) {
	defer fs.lockNamespace(p)()
	parent, name, err := fs.nameiParent(p, path, c)
	if err != nil {
		return nil, err
	}
	if !parent.allows(c, 3) { // write + exec on parent
		return nil, ErrPerm
	}
	entries, err := fs.ReadDir(p, parent)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Name == name {
			return nil, ErrExist
		}
	}
	ino, err := fs.allocInode()
	if err != nil {
		return nil, err
	}
	now := fs.now()
	in := &Inode{
		Ino:   ino,
		Mode:  mode,
		UID:   c.UID,
		GID:   c.GID,
		Links: 1,
		Atime: now,
		Mtime: now,
		Ctime: now,
	}
	if in.IsDir() {
		in.Links = 2
	}
	in.Dev = fs.devID
	fs.inodes[ino] = in
	fs.markDirty(in)

	entries = append(entries, DirEntry{Ino: ino, Name: name})
	if err := fs.writeDir(p, parent, entries); err != nil {
		return nil, err
	}
	parent.Mtime = now
	fs.markDirty(parent)
	return in, nil
}

// Create makes a regular file.
func (fs *FS) Create(p *sim.Proc, path string, perm uint16, c Cred) (*Inode, error) {
	return fs.create(p, path, ModeFile|(perm&PermMask), c)
}

// Mkdir makes a directory.
func (fs *FS) Mkdir(p *sim.Proc, path string, perm uint16, c Cred) (*Inode, error) {
	return fs.create(p, path, ModeDir|(perm&PermMask), c)
}

// Lookup resolves a path without opening it.
func (fs *FS) Lookup(p *sim.Proc, path string, c Cred) (*Inode, error) {
	return fs.namei(p, path, c)
}

// Unlink removes the link at path. The inode's blocks are deferred-
// freed when the last link drops (open-file lifetime is the kernel's
// concern; the simulation's workloads close before unlinking).
func (fs *FS) Unlink(p *sim.Proc, path string, c Cred) error {
	defer fs.lockNamespace(p)()
	return fs.unlink(p, path, c)
}

// unlink is Unlink under a namespace lock the caller holds.
func (fs *FS) unlink(p *sim.Proc, path string, c Cred) error {
	parent, name, err := fs.nameiParent(p, path, c)
	if err != nil {
		return err
	}
	if !parent.allows(c, 3) {
		return ErrPerm
	}
	entries, err := fs.ReadDir(p, parent)
	if err != nil {
		return err
	}
	idx := -1
	for i, e := range entries {
		if e.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ErrNotExist
	}
	in, err := fs.GetInode(p, entries[idx].Ino)
	if err != nil {
		return err
	}
	if in.IsDir() {
		sub, err := fs.ReadDir(p, in)
		if err != nil {
			return err
		}
		if len(sub) > 0 {
			return ErrNotEmpty
		}
	}
	entries = append(entries[:idx], entries[idx+1:]...)
	if err := fs.writeDir(p, parent, entries); err != nil {
		return err
	}
	parent.Mtime = fs.now()
	fs.markDirty(parent)

	in.Links--
	if in.IsDir() || in.Links == 0 {
		fs.deferFree(in.truncateExtents(0))
		if in.ft != nil {
			in.ft.Truncate(0)
		}
		fs.freeInode(in)
	} else {
		fs.markDirty(in)
	}
	return nil
}
