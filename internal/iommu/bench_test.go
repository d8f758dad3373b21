package iommu

import "testing"

// benchSetup maps nPasids address spaces of nPages pages each and
// warms every translation into the IOTLB (CacheFTEs on).
func benchSetup(nPasids, nPages int) (*IOMMU, uint64) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	cfg.IOTLBEntries = nPasids * nPages
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	lbas := make([]int64, nPages)
	for i := range lbas {
		lbas[i] = int64(80 + 8*i)
	}
	for p := 1; p <= nPasids; p++ {
		buildMapping(u, uint32(p), base, lbas, true)
		for pg := 0; pg < nPages; pg++ {
			u.Translate(Request{PASID: uint32(p), DevID: testDev, VBA: base + uint64(pg)*4096, Bytes: 4096})
		}
	}
	return u, base
}

// BenchmarkInvalidateRangeStorm models a revocation storm: a full
// IOTLB shared by many PASIDs, with small ranges invalidated and
// re-warmed over and over. Pre-index this scanned the whole TLB per
// invalidation; the per-PASID page index makes it proportional to the
// entries actually dropped.
func BenchmarkInvalidateRangeStorm(b *testing.B) {
	u, base := benchSetup(32, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pasid := uint32(i%32 + 1)
		va := base + uint64(i%64)*4096
		u.InvalidateRange(pasid, va, 4096)
		u.Translate(Request{PASID: pasid, DevID: testDev, VBA: va, Bytes: 4096}) // re-warm
	}
}

// BenchmarkTranslate2MiB exercises the leaf-resident segment walker: a
// single 512-page request used to cost 512 independent root→leaf
// descents and now costs one.
func BenchmarkTranslate2MiB(b *testing.B) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	lbas := make([]int64, 512)
	for i := range lbas {
		lbas[i] = int64(80 + 8*i)
	}
	buildMapping(u, 1, base, lbas, true)
	segs := make([]Segment, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := u.TranslateInto(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 512 * 4096}, segs)
		if r.Status != OK {
			b.Fatal(r.Status)
		}
		segs = r.Segments[:0]
	}
}

// BenchmarkTranslate4KWarm is the small-I/O hot path: repeated 4 KiB
// translations in one 2 MiB region, served by the paging-structure
// cache after the first descent.
func BenchmarkTranslate4KWarm(b *testing.B) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	lbas := make([]int64, 64)
	for i := range lbas {
		lbas[i] = int64(80 + 8*i)
	}
	buildMapping(u, 1, base, lbas, true)
	segs := make([]Segment, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := u.TranslateInto(Request{PASID: 1, DevID: testDev, VBA: base + uint64(i%64)*4096, Bytes: 4096}, segs)
		if r.Status != OK {
			b.Fatal(r.Status)
		}
		segs = r.Segments[:0]
	}
}
