package kernel

import (
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/nvme"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/storage"
)

// The BypassD kernel module: creates user-mapped queue pairs bound to
// the process PASID, registers DMA buffers, services fmap(), and
// implements revocation (paper §3.3, §3.6, §4.1).

// CreateUserQueue allocates a device queue pair, links it to the
// process's PASID, and "maps" it into userspace (the returned pair is
// used by UserLib without further kernel involvement).
func (pr *Process) CreateUserQueue(p *sim.Proc, depth int) (*nvme.QueuePair, error) {
	pr.enter(p)
	defer pr.exit(p)
	pr.M.CPU.Compute(p, 2*sim.Microsecond) // one-time setup cost
	q, err := pr.node.Dev.CreateQueue(pr.PASID, depth)
	if err != nil {
		return nil, err
	}
	// The queue inherits the process's tenant class at registration
	// time, the only moment the kernel sees a BypassD queue (§3.7).
	q.QoS = pr.QoS
	return q, nil
}

// AllocDMABuffer returns a pinned buffer UserLib uses for device
// transfers. Allocation happens once at library initialization, like
// SPDK's hugepage pool (paper §3.3).
func (pr *Process) AllocDMABuffer(p *sim.Proc, size int) []byte {
	pr.enter(p)
	defer pr.exit(p)
	pr.M.CPU.Compute(p, 1*sim.Microsecond)
	buf := storage.GetBuf(size)
	// Track for recycling at machine teardown (core.System.Close).
	pr.M.mu.Lock()
	pr.M.dmaBufs = append(pr.M.dmaBufs, buf)
	pr.M.mu.Unlock()
	return buf
}

// OpenBypass opens path intending BypassD-interface access: the open
// is forwarded to the kernel and an fmap() follows (paper Table 3).
// If the kernel declines the fmap (VBA 0), the descriptor remains
// usable through the kernel interface — co-existence principle 4.
func (pr *Process) OpenBypass(p *sim.Proc, path string, write bool) (fd int, base uint64, err error) {
	path, err = pr.resolve(path)
	if err != nil {
		return 0, 0, err
	}
	pr.enter(p)
	m := pr.M
	m.CPU.Compute(p, OpenCost)
	in, err := pr.node.FS.Lookup(p, path, pr.Cred)
	if err != nil {
		pr.exit(p)
		return 0, 0, err
	}
	if in.IsDir() {
		pr.exit(p)
		return 0, 0, ext4.ErrIsDir
	}
	if err := pr.node.FS.Access(in, pr.Cred, write); err != nil {
		pr.exit(p)
		return 0, 0, err
	}
	fd = pr.installFD(in, path, write)
	pr.exit(p)

	base, err = pr.Fmap(p, fd)
	if err != nil {
		return 0, 0, err
	}
	if base == 0 {
		// Kernel declined direct access: fall back to the kernel
		// interface on the same descriptor.
		in.KernelOpens++
	}
	return fd, base, nil
}

// Fmap maps the file into the process address space and returns the
// starting VBA, or 0 if the file is not eligible for direct access
// (revoked, or concurrently open through the kernel interface). The
// mapping structure is the process's: shared page-table FTEs (paper
// §3.2, §4.1), or with ExtentFmap an IOMMU extent table (§5.1).
func (pr *Process) Fmap(p *sim.Proc, fd int) (uint64, error) {
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	m := pr.M
	pr.enter(p)
	defer pr.exit(p)

	in := f.Ino
	m.mu.Lock()
	rev := m.revoked[ikey(in)]
	m.mu.Unlock()
	if rev || in.KernelOpens > 0 {
		return 0, nil // VBA 0: use the kernel interface (paper §3.6)
	}
	// Injected policy denial: the kernel declines direct access this
	// time; the caller uses the kernel interface. FTE fmaps only: the
	// extent-table path never drew from this site, and the chaos
	// golden's A6 rows depend on its fire sequence.
	if !pr.ExtentFmap && m.Faults.Fire(faults.SiteKernelFmapZero) {
		return 0, nil
	}
	if f.Bypass != nil {
		return f.Bypass.Base, nil // already mapped
	}

	// The structure-specific middle, each in its own CPU-charge order:
	// size the mapping, reserve virtual headroom so in-place growth can
	// extend it without moving it (paper §4.1), then build it.
	var span uint64
	var ft *pagetable.FileTable
	if pr.ExtentFmap {
		span = uint64(in.AllocatedBlocks()) * ext4.BlockSize
	} else {
		var built bool
		if ft, built = pr.node.FS.FileTable(in); built {
			// Cold fmap: population of the file table entries dominates
			// (Table 5 fit: ~5 ns per PTE + extent-tree setup).
			m.CPU.Compute(p, FmapColdBase+sim.Time(ft.PTEs())*FmapPerPTE)
		}
		span = ft.SpanBytes() // bytes actually covered by fragments
	}
	reserved := max(4*span, 64<<20)
	base := pr.allocVBA(reserved)
	if pr.ExtentFmap {
		segs := regionSegs(in)
		m.CPU.Compute(p, FmapBase+sim.Time(len(segs))*fmapRegionPerExtent)
		if err := m.registerRegion(pr, base, reserved, f.Writable, segs); err != nil {
			return 0, err
		}
	} else {
		updates, err := ft.Attach(pr.Table, base, f.Writable)
		if err != nil {
			return 0, err
		}
		// Hardware discipline: every page-table splice is followed by an
		// IOMMU invalidation so no translation cache (IOTLB or the
		// paging-structure cache) can serve a path from before the update.
		m.invalidateRange(pr.node, pr.PASID, base, int64(span))
		// Warm fmap: a handful of pointer updates (Table 5 fit).
		m.CPU.Compute(p, FmapBase+sim.Time(updates)*FmapPerPMD)
	}

	att := &Attachment{
		Proc: pr, key: ikey(in), Base: base, Span: span, Reserved: reserved,
		Writable: f.Writable, Region: pr.ExtentFmap,
	}
	f.Bypass = att
	m.mu.Lock()
	m.attachments[att.key] = append(m.attachments[att.key], att)
	m.mu.Unlock()
	in.BypassOpens++
	return base, nil
}

// detach withdraws one attachment's mapping: the FTE pointers and
// their cached translations, or the extent-table registration.
func (m *Machine) detach(att *Attachment) {
	pr := att.Proc
	if att.Region {
		m.unregisterRegion(pr, att.Base)
		return
	}
	// Pointer by pointer, so detaching works even when the shared
	// file table itself has been evicted.
	for off := uint64(0); off < att.Span; off += pagetable.PMDSpan {
		pr.Table.DetachPMD(att.Base + off)
	}
	m.invalidateRange(pr.node, pr.PASID, att.Base, int64(att.Span))
}

// funmap detaches one attachment (close path).
func (m *Machine) funmap(att *Attachment) {
	if !att.Revoked {
		m.detach(att)
	}
	m.removeAttachment(att)
}

func (m *Machine) removeAttachment(att *Attachment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.attachments[att.key]
	for i, a := range list {
		if a == att {
			m.attachments[att.key] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(m.attachments[att.key]) == 0 {
		delete(m.attachments, att.key)
	}
}

// Revoke withdraws every process's direct access to the file: detach
// the FTEs and invalidate IOMMU state. Subsequent userspace I/O
// faults; UserLib re-issues fmap(), receives VBA 0, and falls back to
// the kernel interface (paper §3.6).
func (m *Machine) Revoke(in *ext4.Inode) {
	k := ikey(in)
	m.mu.Lock()
	m.revoked[k] = true
	list := m.attachments[k]
	delete(m.attachments, k)
	m.mu.Unlock()
	for _, att := range list {
		m.detach(att)
		att.Revoked = true
	}
}

// syncGrowth attaches newly created file-table fragments into every
// process that has the file mapped, extending the mapping in place.
// Growth within an existing 2 MiB fragment is already visible through
// the shared fragment; only fragment-boundary crossings need pointer
// updates. If a mapping's reserved region is exhausted, direct access
// is revoked and the process falls back to the kernel interface.
func (m *Machine) syncGrowth(in *ext4.Inode) {
	var ft *pagetable.FileTable
	var newSpan uint64
	var frags []*pagetable.Node
	if in.HasFileTable() {
		ft, _ = m.node(in).FS.FileTable(in)
		newSpan = ft.SpanBytes()
		frags = ft.Fragments()
	}
	var exhausted bool
	m.mu.Lock()
	list := append([]*Attachment(nil), m.attachments[ikey(in)]...)
	m.mu.Unlock()
	for _, att := range list {
		if att.Region {
			m.regionSync(in, att)
			continue
		}
		if ft == nil || newSpan <= att.Span {
			continue
		}
		if newSpan > att.Reserved {
			exhausted = true
			continue
		}
		for i := int(att.Span / pagetable.PMDSpan); i < len(frags); i++ {
			va := att.Base + uint64(i)*pagetable.PMDSpan
			if _, err := att.Proc.Table.AttachPMD(va, frags[i], att.Writable); err != nil {
				exhausted = true
				break
			}
		}
		// Invalidate the grown tail: like Fmap, an attach is a
		// page-table update and must not leave stale cached paths.
		m.invalidateRange(att.Proc.node, att.Proc.PASID, att.Base+att.Span, int64(newSpan-att.Span))
		att.Span = newSpan
	}
	if exhausted {
		m.Revoke(in)
	}
}

// invalidateMappings drops IOMMU translations for a file whose block
// layout changed (truncate); page-table FTEs were already updated via
// the shared fragments, while extent-table mappings re-register.
func (m *Machine) invalidateMappings(in *ext4.Inode) {
	m.mu.Lock()
	list := append([]*Attachment(nil), m.attachments[ikey(in)]...)
	m.mu.Unlock()
	for _, att := range list {
		if att.Region {
			m.regionSync(in, att)
			continue
		}
		m.invalidateRange(att.Proc.node, att.Proc.PASID, att.Base, int64(att.Span))
	}
}

// Revoked reports whether direct access to the inode is currently
// revoked (tests, Fig. 12 harness).
func (m *Machine) Revoked(in *ext4.Inode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.revoked[ikey(in)]
}
