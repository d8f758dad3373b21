package iommu

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/storage"
)

// Region maps: the §5.1 "alternate data structures" enhancement.
//
// Storing VBA translations in page tables makes fmap() cost linear in
// file size (Table 5's cold-fmap column). The paper suggests a
// different structure with a new hardware walker (rIOMMU-style) could
// reduce that cost. This implements one: the kernel registers a
// per-mapping *extent table* — a sorted array of (offset, sector,
// length) runs — and the IOMMU resolves VBAs with a binary search.
// Registration is O(extents) instead of O(pages), and a whole file is
// usually a handful of extents.

// RegionSeg maps region-relative bytes [Off, Off+Bytes) to device
// sectors starting at Sector.
type RegionSeg struct {
	Off    uint64
	Sector int64
	Bytes  int64
}

// regionMap is one registered mapping.
type regionMap struct {
	pasid    uint32
	devID    uint8
	base     uint64
	span     uint64
	writable bool
	segs     []RegionSeg // sorted by Off, contiguous coverage
}

// RegisterRegion installs an extent-table mapping for
// [base, base+span) in pasid's I/O address space. Segments must be
// sorted, non-overlapping, and contiguous from offset 0.
func (u *IOMMU) RegisterRegion(pasid uint32, devID uint8, base, span uint64, writable bool, segs []RegionSeg) error {
	var off uint64
	for _, s := range segs {
		if s.Off != off || s.Bytes <= 0 || s.Bytes%storage.SectorSize != 0 {
			return fmt.Errorf("iommu: region segments not dense at %#x", off)
		}
		off += uint64(s.Bytes)
	}
	if off > span {
		return fmt.Errorf("iommu: segments (%d bytes) exceed span (%d)", off, span)
	}
	u.UnregisterRegion(pasid, base)
	u.regions = append(u.regions, &regionMap{
		pasid: pasid, devID: devID, base: base, span: span,
		writable: writable, segs: segs,
	})
	return nil
}

// UnregisterRegion removes the mapping at base (revocation/close).
func (u *IOMMU) UnregisterRegion(pasid uint32, base uint64) {
	for i, r := range u.regions {
		if r.pasid == pasid && r.base == base {
			u.regions = append(u.regions[:i], u.regions[i+1:]...)
			return
		}
	}
}

// regionFor finds a registered mapping containing va.
func (u *IOMMU) regionFor(pasid uint32, va uint64) *regionMap {
	for _, r := range u.regions {
		if r.pasid == pasid && va >= r.base && va < r.base+r.span {
			return r
		}
	}
	return nil
}

// translateRegion resolves a request against an extent table,
// appending segments to out (which may be a caller-reused buffer).
func (u *IOMMU) translateRegion(r *regionMap, req Request, out []Segment) Result {
	lookups := 0
	lat := func() sim.Time {
		if u.cfg.FixedVBALatency >= 0 {
			return u.cfg.FixedVBALatency
		}
		// Binary search over the extent array: one cacheline-ish
		// probe per halving. Cheaper than a 4-level page walk and
		// with no 8-entries-per-cacheline leaf constraint.
		probes := 1
		for n := len(r.segs); n > 1; n /= 2 {
			probes++
		}
		d := pcieRoundTrip + sim.Time(probes*int(cachelineFetch)) +
			sim.Time(lookups-1)*cachelineFetch
		if d < pcieRoundTrip+50*sim.Nanosecond {
			d = pcieRoundTrip + 50*sim.Nanosecond
		}
		return d
	}

	if req.DevID != r.devID {
		u.countDenial()
		return Result{Status: Denied, Latency: lat()}
	}
	if req.Write && !r.writable {
		u.countDenial()
		return Result{Status: Denied, Latency: lat()}
	}
	off := req.VBA - r.base
	end := off + uint64(req.Bytes)
	if off%storage.SectorSize != 0 || req.Bytes%storage.SectorSize != 0 {
		u.countFault()
		return Result{Status: Fault, Latency: lat()}
	}
	for off < end {
		i := sort.Search(len(r.segs), func(i int) bool {
			return r.segs[i].Off+uint64(r.segs[i].Bytes) > off
		})
		if i == len(r.segs) || r.segs[i].Off > off {
			u.countFault()
			return Result{Status: Fault, Latency: lat()}
		}
		lookups++
		s := r.segs[i]
		inner := off - s.Off
		n := uint64(s.Bytes) - inner
		if n > end-off {
			n = end - off
		}
		sector := s.Sector + int64(inner)/storage.SectorSize
		cnt := int64(n) / storage.SectorSize
		if k := len(out); k > 0 && out[k-1].Sector+out[k-1].Sectors == sector {
			out[k-1].Sectors += cnt
		} else {
			out = append(out, Segment{Sector: sector, Sectors: cnt})
		}
		off += n
	}
	return Result{Status: OK, Segments: out, Latency: lat()}
}
