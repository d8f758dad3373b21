package kernel

import (
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// FmapRegion: the §5.1 "alternate data structures" variant of fmap().
// Instead of populating page-table FTEs (O(pages), the dominant cost
// of a cold fmap on large files — Table 5), the kernel registers the
// file's extent list with the IOMMU's extent-table walker: O(extents)
// registration, typically a handful of entries.

// fmapRegionPerExtent is the registration cost per extent.
const fmapRegionPerExtent = 20 * sim.Nanosecond

// regionSegs converts an inode's extent map to IOMMU segments.
func regionSegs(in *ext4.Inode) []iommu.RegionSeg {
	segs := make([]iommu.RegionSeg, 0, len(in.Extents))
	for _, e := range in.Extents {
		segs = append(segs, iommu.RegionSeg{
			Off:    uint64(e.FileBlock) * ext4.BlockSize,
			Sector: int64(e.Start) * ext4.SectorsPerBlock,
			Bytes:  int64(e.Count) * ext4.BlockSize,
		})
	}
	return segs
}

// FmapRegion maps the file via an IOMMU extent table and returns the
// starting VBA (0 when direct access is not permitted, exactly like
// Fmap).
func (pr *Process) FmapRegion(p *sim.Proc, fd int) (uint64, error) {
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
		return 0, nil
	}
	if f.Bypass != nil {
		if !f.Bypass.Revoked {
			return f.Bypass.Base, nil
		}
		// As in Fmap: re-map past an attachment a Revoke withdrew; the
		// new attachment's open-count replaces the dead one's.
		f.Bypass = nil
		in.BypassOpens--
	}

	span := uint64(in.AllocatedBlocks()) * ext4.BlockSize
	reserved := 4 * span
	if reserved < 64<<20 {
		reserved = 64 << 20
	}
	base := pr.allocVBA(reserved)
	segs := regionSegs(in)
	m.CPU.Compute(p, FmapBase+sim.Time(len(segs))*fmapRegionPerExtent)
	if err := m.registerRegion(pr.node, pr.PASID, pr.node.Dev.Config().DevID, base, reserved, f.Writable, segs); err != nil {
		return 0, err
	}

	att := &Attachment{
		Proc: pr, key: ikey(in), Base: base, Span: span, Reserved: reserved,
		Writable: f.Writable, Region: true,
	}
	f.Bypass = att
	m.mu.Lock()
	m.attachments[att.key] = append(m.attachments[att.key], att)
	m.mu.Unlock()
	in.BypassOpens++
	return base, nil
}

// registerRegion installs an extent-table mapping, mirroring the
// PASID discipline: coupled phases program every node's agent, an
// armed phase stays on the owning node's shard.
func (m *Machine) registerRegion(owner *DevNode, pasid uint32, devID uint8, base, reserved uint64, writable bool, segs []iommu.RegionSeg) error {
	if m.Sim.ParallelArmed() {
		return owner.MMU.RegisterRegion(pasid, devID, base, reserved, writable, segs)
	}
	var first error
	for _, n := range m.Nodes {
		if err := n.MMU.RegisterRegion(pasid, devID, base, reserved, writable, segs); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// regionDetach tears down an extent-table mapping.
func (m *Machine) regionDetach(att *Attachment) {
	if m.Sim.ParallelArmed() {
		att.Proc.node.MMU.UnregisterRegion(att.Proc.PASID, att.Base)
		return
	}
	for _, n := range m.Nodes {
		n.MMU.UnregisterRegion(att.Proc.PASID, att.Base)
	}
}

// regionSync refreshes an extent-table mapping after the file's block
// layout changed (growth, truncation). Registration is cheap enough
// to redo wholesale.
func (m *Machine) regionSync(in *ext4.Inode, att *Attachment) {
	segs := regionSegs(in)
	newSpan := uint64(in.AllocatedBlocks()) * ext4.BlockSize
	if newSpan > att.Reserved {
		m.Revoke(in)
		return
	}
	if err := m.registerRegion(att.Proc.node, att.Proc.PASID, att.Proc.node.Dev.Config().DevID, att.Base, att.Reserved, att.Writable, segs); err != nil {
		m.Revoke(in)
		return
	}
	att.Span = newSpan
}
