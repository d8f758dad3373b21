package kernel

import (
	"repro/internal/ext4"
	"repro/internal/sim"
)

// Rename moves a file. The inode is stable, so BypassD mappings of
// the moved file remain valid across the rename.
func (pr *Process) Rename(p *sim.Proc, oldPath, newPath string) error {
	oldPath, err := pr.resolve(oldPath)
	if err != nil {
		return err
	}
	newPath, err = pr.resolve(newPath)
	if err != nil {
		return err
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.M.CPU.Compute(p, OpenCost)
	return pr.node.FS.Rename(p, oldPath, newPath, pr.Cred)
}

// Relink atomically grafts the staging file's blocks onto the end of
// the target — SplitFS's relink, the §5.1 alternative fast-append
// mechanism. One metadata operation moves any amount of staged data;
// no bytes are copied.
func (pr *Process) Relink(p *sim.Proc, stagingFD, targetFD int) error {
	src, err := pr.fd(stagingFD)
	if err != nil {
		return err
	}
	dst, err := pr.fd(targetFD)
	if err != nil {
		return err
	}
	if !src.Writable || !dst.Writable {
		return ext4.ErrPerm
	}
	pr.enter(p)
	defer pr.exit(p)
	m := pr.M

	// Order the inode write locks by (device, number) to avoid
	// deadlock. Both descriptors were opened on pr's node, but the
	// ordering key is the machine-wide identity regardless.
	a, b := src.Ino, dst.Ino
	if a.Dev > b.Dev || (a.Dev == b.Dev && a.Ino > b.Ino) {
		a, b = b, a
	}
	la := m.writeLock(a)
	la.Acquire(p)
	var lb *sim.Resource
	if a != b {
		lb = m.writeLock(b)
		lb.Acquire(p)
	}
	defer func() {
		if lb != nil {
			lb.Release()
		}
		la.Release()
	}()

	// Relink is pure metadata: charge one VFS traversal.
	pr.vfsCharge(p, 0)
	if err := pr.node.FS.Relink(p, src.Ino, dst.Ino); err != nil {
		return err
	}
	// The staging file's mappings must stop resolving; the target's
	// grow in place.
	m.invalidateMappings(src.Ino)
	m.syncGrowth(dst.Ino)
	return nil
}
