package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntryEncoding(t *testing.T) {
	e := MakeFTE(0x123456789, 7)
	if !e.Present() || !e.RW() || !e.FT() {
		t.Fatalf("FTE flags wrong: %#x", uint64(e))
	}
	if e.LBA() != 0x123456789 {
		t.Fatalf("LBA = %#x, want 0x123456789", e.LBA())
	}
	if e.DevID() != 7 {
		t.Fatalf("DevID = %d, want 7", e.DevID())
	}
}

func TestEntryEncodingProperty(t *testing.T) {
	f := func(rawLBA uint64, dev uint8) bool {
		lba := int64(rawLBA % (1 << 36))
		e := MakeFTE(lba, dev)
		return e.LBA() == lba && e.DevID() == dev && e.FT() && e.Present()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFTEOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("huge LBA did not panic")
		}
	}()
	MakeFTE(1<<36, 0)
}

func TestMapWalk(t *testing.T) {
	tab := New()
	va := uint64(0x7000_0040_2000)
	tab.Map(va, MakeFTE(800, 1))
	r := tab.Walk(va)
	if !r.Found || r.Entry.LBA() != 800 || !r.EffRW {
		t.Fatalf("walk = %+v", r)
	}
}

func TestWalkMissAtEachLevel(t *testing.T) {
	tab := New()
	if r := tab.Walk(0x1000); r.Found {
		t.Fatalf("empty table walk = %+v", r)
	}
	tab.Map(0x1000, MakeFTE(1, 0))
	// Same PT, different page: miss at the leaf.
	if r := tab.Walk(0x2000); r.Found {
		t.Fatalf("leaf miss walk = %+v", r)
	}
	// Different PGD slot: miss at the top level.
	if r := tab.Walk(uint64(1) << 40); r.Found {
		t.Fatalf("high va walk = %+v", r)
	}
}

func TestWalkOutOfRange(t *testing.T) {
	tab := New()
	if r := tab.Walk(MaxVA); r.Found {
		t.Fatal("walk beyond canonical range found entry")
	}
}

func TestAttachPMDAndEffectivePermissions(t *testing.T) {
	// One shared fragment, two processes with different rights.
	ft := NewFileTable(2)
	ft.SetPage(3, 4096)
	frag := ft.Fragments()[0]

	rw := New()
	ro := New()
	base := uint64(16 * PMDSpan)
	if _, err := rw.AttachPMD(base, frag, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.AttachPMD(base, frag, false); err != nil {
		t.Fatal(err)
	}

	va := base + 3*PageSize
	r1 := rw.Walk(va)
	if !r1.Found || !r1.EffRW || r1.Entry.LBA() != 4096 {
		t.Fatalf("rw walk = %+v", r1)
	}
	r2 := ro.Walk(va)
	if !r2.Found || r2.EffRW {
		t.Fatalf("ro walk = %+v (EffRW should be false)", r2)
	}

	// Patching the shared fragment is visible through both tables.
	ft.SetPage(9, 9999)
	if r := ro.Walk(base + 9*PageSize); !r.Found || r.Entry.LBA() != 9999 {
		t.Fatalf("shared patch not visible: %+v", r)
	}
}

func TestAttachAlignment(t *testing.T) {
	tab := New()
	if _, err := tab.AttachPMD(PageSize, &Node{}, true); err == nil {
		t.Fatal("unaligned attach succeeded")
	}
}

func TestDetachPMDRevokes(t *testing.T) {
	ft := NewFileTable(0)
	ft.SetPage(0, 100)
	frag := ft.Fragments()[0]
	tab := New()
	base := uint64(4 * PMDSpan)
	if _, err := tab.AttachPMD(base, frag, true); err != nil {
		t.Fatal(err)
	}
	if !tab.Walk(base).Found {
		t.Fatal("walk failed before detach")
	}
	tab.DetachPMD(base)
	if tab.Walk(base).Found {
		t.Fatal("walk succeeded after detach (revocation broken)")
	}
	tab.DetachPMD(base) // a double detach is a no-op
	if tab.Walk(base).Found {
		t.Fatal("walk succeeded after a double detach")
	}
}

func TestFileTableBuild(t *testing.T) {
	ft := NewFileTable(3)
	ft.SetRun(0, 8, 2)
	ft.SetPage(3, 32) // page 2 stays a hole
	if ft.Pages() != 4 {
		t.Fatalf("pages = %d, want 4", ft.Pages())
	}
	if ft.PTEs() != 3 {
		t.Fatalf("PTEs = %d, want 3 (one hole)", ft.PTEs())
	}
	if len(ft.Fragments()) != 1 {
		t.Fatalf("frags = %d, want 1", len(ft.Fragments()))
	}
}

func TestFileTableMultiFragment(t *testing.T) {
	ft := NewFileTable(0)
	pages := EntriesPer*2 + 10 // spills into a third fragment
	for i := 0; i < pages; i++ {
		ft.SetPage(i, int64(i*8))
	}
	if got := len(ft.Fragments()); got != 3 {
		t.Fatalf("fragments = %d, want 3", got)
	}
	if ft.SpanBytes() != 3*PMDSpan {
		t.Fatalf("span = %d", ft.SpanBytes())
	}

	tab := New()
	base := uint64(0x4000_0000_0000)
	updates, err := ft.Attach(tab, base, true)
	if err != nil {
		t.Fatal(err)
	}
	if updates < 3 {
		t.Fatalf("updates = %d, want >= 3 (one per fragment)", updates)
	}
	// Check a page in each fragment.
	for _, pg := range []int{0, EntriesPer + 5, 2*EntriesPer + 9} {
		r := tab.Walk(base + uint64(pg)*PageSize)
		if !r.Found || r.Entry.LBA() != int64(pg*8) {
			t.Fatalf("page %d walk = %+v", pg, r)
		}
	}
	// Unmapped page within span.
	if r := tab.Walk(base + uint64(2*EntriesPer+10)*PageSize); r.Found {
		t.Fatal("hole page resolved")
	}

	for i := range ft.Fragments() {
		tab.DetachPMD(base + uint64(i)*PMDSpan)
	}
	if tab.Walk(base).Found {
		t.Fatal("walk succeeded after detaching every fragment")
	}
}

func TestFileTableTruncate(t *testing.T) {
	ft := NewFileTable(0)
	for i := 0; i < 20; i++ {
		ft.SetPage(i, int64(i))
	}
	ft.Truncate(5)
	if ft.Pages() != 5 {
		t.Fatalf("pages after truncate = %d, want 5", ft.Pages())
	}
	if ft.PTEs() != 5 {
		t.Fatalf("PTEs after truncate = %d, want 5", ft.PTEs())
	}
	// Growing again reuses cleared slots.
	ft.SetPage(7, 70)
	if ft.Pages() != 8 || ft.PTEs() != 6 {
		t.Fatalf("pages/PTEs = %d/%d after regrow", ft.Pages(), ft.PTEs())
	}
}

func TestClearPage(t *testing.T) {
	ft := NewFileTable(0)
	ft.SetRun(0, 8, 3)
	ft.ClearPage(1)
	if ft.PTEs() != 2 {
		t.Fatalf("PTEs = %d, want 2", ft.PTEs())
	}
	ft.ClearPage(99) // out of range: no-op
	ft.ClearPage(-1)
}

// Property: walking any page mapped through a file table returns the
// exact LBA that was set.
func TestFileTableWalkProperty(t *testing.T) {
	f := func(seedPages []uint16) bool {
		if len(seedPages) == 0 {
			return true
		}
		ft := NewFileTable(5)
		want := map[int]int64{}
		for i, sp := range seedPages {
			pg := int(sp) % 2048
			lba := int64(i*8 + 8)
			ft.SetPage(pg, lba)
			want[pg] = lba
		}
		tab := New()
		base := uint64(0x2000_0000_0000)
		if _, err := ft.Attach(tab, base, true); err != nil {
			return false
		}
		for pg, lba := range want {
			r := tab.Walk(base + uint64(pg)*PageSize)
			if !r.Found || r.Entry.LBA() != lba || r.Entry.DevID() != 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// buildRandomTable assembles a deliberately messy table from a seed:
// sparse and dense file-table fragments, holes inside fragments,
// detached PMDs, regular (non-FT) PTE leaves, and read-only
// attachments — every shape LeafFor's descent must resolve like Walk.
func buildRandomTable(seed int64) (*Table, uint64, int) {
	rng := rand.New(rand.NewSource(seed))
	tab := New()
	base := uint64(0x2000_0000_0000)
	regions := 2 + rng.Intn(5) // 2 MiB regions covered by the scan
	for ri := 0; ri < regions; ri++ {
		va := base + uint64(ri)*PMDSpan
		switch rng.Intn(5) {
		case 0: // never attached: upper levels dead-end
		case 1: // dense fragment
			ft := NewFileTable(7)
			for pg := 0; pg < EntriesPer; pg++ {
				ft.SetPage(pg, int64(pg*8+8))
			}
			_, _ = ft.Attach(tab, va, rng.Intn(2) == 0)
		case 2: // sparse fragment with holes
			ft := NewFileTable(7)
			for pg := 0; pg < EntriesPer; pg++ {
				if rng.Intn(3) == 0 {
					ft.SetPage(pg, int64(pg*8+8))
				} else {
					ft.growTo(pg + 1)
				}
			}
			_, _ = ft.Attach(tab, va, true)
		case 3: // attached then detached (revocation)
			ft := NewFileTable(7)
			ft.SetPage(0, 8)
			_, _ = ft.Attach(tab, va, true)
			tab.DetachPMD(va)
		case 4: // regular PTE leaves mixed with FTEs
			for pg := 0; pg < EntriesPer; pg += 1 + rng.Intn(7) {
				pva := va + uint64(pg)*PageSize
				if rng.Intn(2) == 0 {
					pte := FlagPresent | FlagUser | Entry(pg+100)<<payloadShift // ordinary memory page
					if rng.Intn(2) == 0 {
						pte |= FlagRW
					}
					tab.Map(pva, pte)
				} else {
					tab.Map(pva, MakeFTE(int64(pg*8+8), 7))
				}
			}
		}
	}
	return tab, base, regions * EntriesPer
}

// leafWalk resolves va the way the IOMMU's segment walker does: one
// LeafFor descent, then the entry from the resident leaf node.
func leafWalk(tab *Table, va uint64) WalkResult {
	leaf, effRW, ok := tab.LeafFor(va)
	if !ok {
		return WalkResult{}
	}
	e := leaf.Entry(index(va, 1))
	if !e.Present() {
		return WalkResult{}
	}
	return WalkResult{Entry: e, EffRW: effRW && e.RW(), Found: true}
}

// Property: over randomized sparse/dense tables — holes, detached
// PMDs, mixed FTE/PTE leaves, read-only attachments — LeafFor plus the
// leaf entry is result-identical to per-page Walk, including the
// effective R/W bit.
func TestLeafForMatchesWalkProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		tab, base, pages := buildRandomTable(seed)
		// Start the scan off-region-alignment sometimes to cover
		// partial leading leaf windows.
		rng := rand.New(rand.NewSource(seed * 77))
		start := base + uint64(rng.Intn(EntriesPer))*PageSize
		n := 1 + rng.Intn(pages)
		for i := 0; i < n; i++ {
			va := start + uint64(i)*PageSize
			if got, want := leafWalk(tab, va), tab.Walk(va); got != want {
				t.Fatalf("seed %d page %d: LeafFor %+v != Walk %+v", seed, i, got, want)
			}
		}
	}
}

// LeafFor beyond the canonical user half fails like Walk does.
func TestLeafForOutOfRange(t *testing.T) {
	tab := New()
	start := MaxVA - 2*PageSize
	for i := 0; i < 4; i++ {
		va := start + uint64(i)*PageSize
		if got, want := leafWalk(tab, va), tab.Walk(va); got != want {
			t.Fatalf("page %d: %+v != %+v", i, got, want)
		}
	}
}
