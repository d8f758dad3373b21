package iommu

import (
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// DMAEngine models Intel's IOAT DMA copy engine, used by the paper to
// measure IOMMU translation overheads on real hardware (Table 4). The
// engine copies between buffers addressed by I/O virtual addresses;
// when the IOMMU is enabled each buffer address is looked up in the
// IOTLB and walked on a miss.
type DMAEngine struct {
	iommu   *IOMMU
	Enabled bool // IOMMU interposed on the engine's DMAs

	// BaseCopyLatency is the engine's copy time with the IOMMU off
	// (Table 4 row 1: 1120 ns for the probe transfer size).
	BaseCopyLatency sim.Time

	tlb map[tlbKey]bool // engine-visible IOTLB state
}

// NewDMAEngine returns an engine attached to u.
func NewDMAEngine(u *IOMMU) *DMAEngine {
	return &DMAEngine{
		iommu:           u,
		Enabled:         true,
		BaseCopyLatency: 1120 * sim.Nanosecond,
		tlb:             make(map[tlbKey]bool),
	}
}

// FlushTLB empties the engine's IOTLB (forces misses, as the paper
// does by varying the source buffer address).
func (d *DMAEngine) FlushTLB() { d.tlb = make(map[tlbKey]bool) }

// Copy models one DMA copy of a buffer at srcVA to dstVA within the
// address space registered for pasid, returning the end-to-end
// latency. Regular PTEs (not FTEs) translate the buffers; unlike
// FTEs they are always IOTLB-cacheable.
func (d *DMAEngine) Copy(pasid uint32, srcVA, dstVA uint64) sim.Time {
	lat := d.BaseCopyLatency
	if !d.Enabled {
		return lat
	}
	for _, va := range []uint64{srcVA, dstVA} {
		key := tlbKey{pasid, va / pagetable.PageSize}
		lat += iotlbLookup
		if d.tlb[key] {
			d.iommu.countTLBHit()
			continue
		}
		d.iommu.countTLBMiss()
		lat += d.iommu.cfg.WalkLatency
		d.tlb[key] = true
	}
	return lat
}
