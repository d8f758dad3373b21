package iommu

import (
	"testing"
	"testing/quick"

	"repro/internal/pagetable"
	"repro/internal/sim"
)

func TestRegionRegisterValidation(t *testing.T) {
	u := New(DefaultConfig())
	// Non-dense segments rejected.
	err := u.RegisterRegion(1, 1, 0x1000_0000, 1<<20, true, []RegionSeg{
		{Off: 0, Sector: 0, Bytes: 4096},
		{Off: 8192, Sector: 100, Bytes: 4096}, // gap
	})
	if err == nil {
		t.Fatal("gapped segments accepted")
	}
	// Segments exceeding span rejected.
	err = u.RegisterRegion(1, 1, 0x1000_0000, 4096, true, []RegionSeg{
		{Off: 0, Sector: 0, Bytes: 8192},
	})
	if err == nil {
		t.Fatal("oversized segments accepted")
	}
}

func TestRegionReplaceAndUnregister(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x1000_0000)
	seg := []RegionSeg{{Off: 0, Sector: 80, Bytes: 4096}}
	if err := u.RegisterRegion(1, 1, base, 1<<20, true, seg); err != nil {
		t.Fatal(err)
	}
	// Re-register replaces in place (no duplicates).
	seg2 := []RegionSeg{{Off: 0, Sector: 160, Bytes: 4096}}
	if err := u.RegisterRegion(1, 1, base, 1<<20, true, seg2); err != nil {
		t.Fatal(err)
	}
	r := u.Translate(Request{PASID: 1, DevID: 1, VBA: base, Bytes: 4096})
	if r.Status != OK || r.Segments[0].Sector != 160 {
		t.Fatalf("replacement not effective: %+v", r)
	}
	u.UnregisterRegion(1, base)
	if r := u.Translate(Request{PASID: 1, DevID: 1, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("post-unregister = %v, want fault", r.Status)
	}
}

func TestRegionPermissionChecks(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x1000_0000)
	if err := u.RegisterRegion(1, 1, base, 1<<20, false, []RegionSeg{{Off: 0, Sector: 80, Bytes: 8192}}); err != nil {
		t.Fatal(err)
	}
	if r := u.Translate(Request{PASID: 1, DevID: 1, VBA: base, Bytes: 4096, Write: true}); r.Status != Denied {
		t.Fatalf("write on RO region = %v", r.Status)
	}
	if r := u.Translate(Request{PASID: 1, DevID: 2, VBA: base, Bytes: 4096}); r.Status != Denied {
		t.Fatalf("cross-device region access = %v", r.Status)
	}
	if r := u.Translate(Request{PASID: 1, DevID: 1, VBA: base + 8192, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("read past segments = %v", r.Status)
	}
}

func TestRegionLatencyCheaperThanWalk(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x1000_0000)
	if err := u.RegisterRegion(1, 1, base, 1<<20, true, []RegionSeg{{Off: 0, Sector: 80, Bytes: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	r := u.Translate(Request{PASID: 1, DevID: 1, VBA: base, Bytes: 4096})
	if r.Status != OK {
		t.Fatal(r.Status)
	}
	if r.Latency >= 550*sim.Nanosecond || r.Latency <= pcieRoundTrip {
		t.Fatalf("region translation latency = %v, want (PCIe, 550ns)", r.Latency)
	}
}

// Property: for any block layout, the extent-table walker and the
// page-table walker translate every aligned request to identical
// device sectors.
func TestRegionEquivalenceProperty(t *testing.T) {
	base := uint64(0x2000_0000_0000)
	f := func(rawRuns []uint16, offSel, lenSel uint16, seed int64) bool {
		if len(rawRuns) == 0 {
			return true
		}
		if len(rawRuns) > 12 {
			rawRuns = rawRuns[:12]
		}
		// Build a block layout of contiguous runs at random disk
		// locations.
		x := uint64(seed)*2654435761 + 12345
		next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }

		var lbas []int64
		var segs []RegionSeg
		off := uint64(0)
		for _, rr := range rawRuns {
			runPages := int(rr)%5 + 1
			diskBlock := int64(next() % (1 << 20))
			segs = append(segs, RegionSeg{
				Off:    off,
				Sector: diskBlock * 8,
				Bytes:  int64(runPages) * 4096,
			})
			for i := 0; i < runPages; i++ {
				lbas = append(lbas, (diskBlock+int64(i))*8)
			}
			off += uint64(runPages) * 4096
		}
		totalBytes := int64(len(lbas)) * 4096

		// Page-table mapping under PASID 1.
		u := New(DefaultConfig())
		ft := fileTable(1, lbas)
		tab := pagetable.New()
		if _, err := ft.Attach(tab, base, true); err != nil {
			return false
		}
		u.RegisterPASID(1, tab)
		// Extent-table mapping under PASID 2.
		if err := u.RegisterRegion(2, 1, base, uint64(totalBytes), true, segs); err != nil {
			return false
		}

		reqOff := (int64(offSel) * 512) % totalBytes
		maxLen := totalBytes - reqOff
		reqLen := (int64(lenSel)*512)%maxLen + 512
		if reqOff+reqLen > totalBytes {
			reqLen = totalBytes - reqOff
		}

		r1 := u.Translate(Request{PASID: 1, DevID: 1, VBA: base + uint64(reqOff), Bytes: reqLen})
		r2 := u.Translate(Request{PASID: 2, DevID: 1, VBA: base + uint64(reqOff), Bytes: reqLen})
		if r1.Status != OK || r2.Status != OK {
			return false
		}
		if len(r1.Segments) != len(r2.Segments) {
			return false
		}
		for i := range r1.Segments {
			if r1.Segments[i] != r2.Segments[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
