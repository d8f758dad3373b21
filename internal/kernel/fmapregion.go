package kernel

import (
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// The §5.1 "alternate data structures" variant of fmap(), selected by
// Process.ExtentFmap. Instead of populating page-table FTEs (O(pages),
// the dominant cost of a cold fmap on large files — Table 5), the
// kernel registers the file's extent list with the IOMMU's
// extent-table walker: O(extents) registration, typically a handful of
// entries. Fmap's shared steps (eligibility, re-map after revoke, VBA
// reservation, attachment bookkeeping) apply to both structures.

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

// registerRegion installs an extent-table mapping for pr, mirroring
// the PASID discipline: coupled phases program every node's agent, an
// armed phase stays on the owning node's shard.
func (m *Machine) registerRegion(pr *Process, base, reserved uint64, writable bool, segs []iommu.RegionSeg) error {
	devID := pr.node.Dev.Config().DevID
	if m.Sim.ParallelArmed() {
		return pr.node.MMU.RegisterRegion(pr.PASID, devID, base, reserved, writable, segs)
	}
	var first error
	for _, n := range m.Nodes {
		if err := n.MMU.RegisterRegion(pr.PASID, devID, base, reserved, writable, segs); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// unregisterRegion tears down pr's extent-table mapping at base under
// the same discipline as registerRegion.
func (m *Machine) unregisterRegion(pr *Process, base uint64) {
	if m.Sim.ParallelArmed() {
		pr.node.MMU.UnregisterRegion(pr.PASID, base)
		return
	}
	for _, n := range m.Nodes {
		n.MMU.UnregisterRegion(pr.PASID, base)
	}
}

// regionSync refreshes an extent-table mapping after the file's block
// layout changed (growth, truncation). Registration is cheap enough
// to redo wholesale.
func (m *Machine) regionSync(in *ext4.Inode, att *Attachment) {
	newSpan := uint64(in.AllocatedBlocks()) * ext4.BlockSize
	if newSpan > att.Reserved {
		m.Revoke(in)
		return
	}
	if err := m.registerRegion(att.Proc, att.Base, att.Reserved, att.Writable, regionSegs(in)); err != nil {
		m.Revoke(in)
		return
	}
	att.Span = newSpan
}
