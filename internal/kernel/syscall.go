package kernel

import (
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/sim"
)

// injectRevoke evaluates the revocation-storm site on a kernel entry
// that names an inode: when it fires, the kernel withdraws every
// process's direct access to the file, exactly as a policy revocation
// would (paper §3.6). UserLib recovers via refmap or falls back.
func (pr *Process) injectRevoke(f *FD) {
	if pr.M.Faults.Fire(faults.SiteKernelRevoke) {
		pr.M.Revoke(f.Ino)
	}
}

// pages returns the page count of an I/O for the per-page VFS cost.
func pages(n int) sim.Time {
	if n <= ext4.BlockSize {
		return 0
	}
	return sim.Time((n - 1) / ext4.BlockSize)
}

// vfsCharge charges the VFS+ext4 data-path cost for an n-byte I/O.
func (pr *Process) vfsCharge(p *sim.Proc, n int) {
	m := pr.M
	m.CPU.Compute(p, VFSCost+pages(n)*VFSPerPage)
}

// Pread reads through the synchronous kernel path (O_DIRECT
// semantics: DMA lands in the user buffer, no page-cache copy).
func (pr *Process) Pread(p *sim.Proc, fd int, buf []byte, off int64) (int, error) {
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.injectRevoke(f)
	pr.vfsCharge(p, len(buf))
	return pr.node.FS.ReadAt(p, f.Ino, off, buf)
}

// Pwrite writes through the synchronous kernel path. Appends (writes
// extending the file) allocate blocks and attach new FTEs via the
// shared file table, then go straight to the device without buffering
// (paper Table 3).
func (pr *Process) Pwrite(p *sim.Proc, fd int, data []byte, off int64) (int, error) {
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	if !f.Writable {
		return 0, ext4.ErrPerm
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.injectRevoke(f)
	// ext4 holds the inode's i_rwsem exclusively across direct-I/O
	// write submission, serializing concurrent writers to one file.
	lock := pr.M.writeLock(f.Ino)
	lock.Acquire(p)
	pr.vfsCharge(p, len(data))
	n, err := pr.node.FS.WriteAt(p, f.Ino, off, data)
	pr.M.syncGrowth(f.Ino)
	lock.Release()
	return n, err
}

// Fallocate preallocates zeroed blocks up to size (paper §5.1's
// optimized-append primitive; Table 3 row fallocate).
func (pr *Process) Fallocate(p *sim.Proc, fd int, size int64) error {
	f, err := pr.fd(fd)
	if err != nil {
		return err
	}
	if !f.Writable {
		return ext4.ErrPerm
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.vfsCharge(p, 0)
	if err := pr.node.FS.Fallocate(p, f.Ino, size); err != nil {
		return err
	}
	pr.M.syncGrowth(f.Ino)
	return nil
}

// Ftruncate resizes the file; shrinking detaches FTEs for the freed
// blocks in every process that has the file mapped.
func (pr *Process) Ftruncate(p *sim.Proc, fd int, size int64) error {
	f, err := pr.fd(fd)
	if err != nil {
		return err
	}
	if !f.Writable {
		return ext4.ErrPerm
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.vfsCharge(p, 0)
	if err := pr.node.FS.Truncate(p, f.Ino, size); err != nil {
		return err
	}
	// Invalidate any cached IOMMU translations for truncated pages.
	pr.M.invalidateMappings(f.Ino)
	return nil
}

// Fsync flushes device queues and commits metadata — the sync point
// of paper §3.6. Deferred timestamps are applied first (paper §4.4).
func (pr *Process) Fsync(p *sim.Proc, fd int) error {
	f, err := pr.fd(fd)
	if err != nil {
		return err
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.injectRevoke(f)
	if f.timesDirty {
		f.Ino.Mtime = p.Now()
		f.timesDirty = false
	}
	return pr.node.FS.Fsync(p, f.Ino)
}

// Sync is sync(2): flush the device and commit all dirty metadata.
func (pr *Process) Sync(p *sim.Proc) error {
	pr.enter(p)
	defer pr.exit(p)
	return pr.node.FS.Sync(p)
}

// WriteFile creates (or truncates) path, writes data to it in 1 MiB
// kernel-interface pwrites, then fsyncs and closes it: the bulk load
// of a store's image before its first run.
func (pr *Process) WriteFile(p *sim.Proc, path string, data []byte) error {
	fd, err := pr.Create(p, path, 0o666)
	if err != nil {
		return err
	}
	const chunk = 1 << 20
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if _, err := pr.Pwrite(p, fd, data[off:end], int64(off)); err != nil {
			return err
		}
	}
	if err := pr.Fsync(p, fd); err != nil {
		return err
	}
	return pr.Close(p, fd)
}

// MarkTimesDirty records that a BypassD-interface data operation
// touched the file; the timestamp lands at close/fsync.
func (f *FD) MarkTimesDirty() { f.timesDirty = true }

// Size reports the inode's current size (UserLib tracks this to route
// appends to the kernel).
func (f *FD) Size() int64 { return f.Ino.Size }
