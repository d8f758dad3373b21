package iommu

import (
	"testing"
	"testing/quick"

	"repro/internal/pagetable"
	"repro/internal/sim"
)

const testDev = 3

// buildMapping registers a PASID whose address space maps a file of
// nPages pages starting at VBA base, with the given per-page LBAs.
func buildMapping(u *IOMMU, pasid uint32, base uint64, lbas []int64, rw bool) *pagetable.Table {
	ft := pagetable.BuildFileTable(testDev, lbas)
	t := pagetable.New()
	if _, err := ft.Attach(t, base, rw); err != nil {
		panic(err)
	}
	u.RegisterPASID(pasid, t)
	return t
}

func TestTranslateContiguous(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	// 4 pages, physically contiguous: sectors 80,88,96,104.
	buildMapping(u, 1, base, []int64{80, 88, 96, 104}, true)

	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 16384})
	if r.Status != OK {
		t.Fatalf("status = %v", r.Status)
	}
	if len(r.Segments) != 1 {
		t.Fatalf("segments = %+v, want 1 coalesced", r.Segments)
	}
	if r.Segments[0] != (Segment{Sector: 80, Sectors: 32}) {
		t.Fatalf("segment = %+v", r.Segments[0])
	}
	if r.Walks != 4 {
		t.Fatalf("walks = %d, want 4", r.Walks)
	}
}

func TestTranslateFragmented(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80, 800, 808}, true)
	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 3 * 4096})
	if r.Status != OK || len(r.Segments) != 2 {
		t.Fatalf("result = %+v", r)
	}
	if r.Segments[0] != (Segment{80, 8}) || r.Segments[1] != (Segment{800, 16}) {
		t.Fatalf("segments = %+v", r.Segments)
	}
}

func TestTranslateSubPageOffset(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	// Read 512 bytes at offset 1024 within the page: sector 80+2.
	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + 1024, Bytes: 512})
	if r.Status != OK || len(r.Segments) != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.Segments[0] != (Segment{82, 1}) {
		t.Fatalf("segment = %+v", r.Segments[0])
	}
}

func TestTranslateUnalignedFaults(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + 100, Bytes: 512}); r.Status == OK {
		t.Fatal("unaligned VBA translated")
	}
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 100}); r.Status == OK {
		t.Fatal("unaligned length translated")
	}
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 0}); r.Status == OK {
		t.Fatal("zero length translated")
	}
}

func TestUnknownPASIDFaults(t *testing.T) {
	u := New(DefaultConfig())
	r := u.Translate(Request{PASID: 99, DevID: testDev, VBA: 0, Bytes: 4096})
	if r.Status != Fault {
		t.Fatalf("status = %v, want fault", r.Status)
	}
}

func TestRevokedMappingFaults(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(testDev, []int64{80, 88})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)

	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != OK {
		t.Fatalf("pre-revocation status = %v", r.Status)
	}
	// Kernel revokes direct access: detach, then invalidate — the same
	// IOTLB + paging-structure-cache invalidation a real IOMMU needs
	// after any page-table update (the kernel's revoke path always
	// pairs the two).
	ft.Detach(tab, base)
	u.InvalidateRange(1, base, 8192)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("post-revocation status = %v, want fault", r.Status)
	}
}

// TestPWCStaleTranslation pins the paging-structure cache's hardware
// semantics: a detach that skips the invalidation leaves the cached
// upper-level path live (the stale fragment still translates), and
// InvalidateRange purges it. This is exactly why every kernel
// detach/attach path must invalidate.
func TestPWCStaleTranslation(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(testDev, []int64{80, 88})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)

	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != OK {
		t.Fatalf("warmup status = %v", r.Status)
	}
	ft.Detach(tab, base) // buggy kernel: no invalidation
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != OK {
		t.Fatalf("without invalidation the PWC should still serve the stale path, got %v", r.Status)
	}
	u.InvalidateRange(1, base, 8192)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("post-invalidate status = %v, want fault", r.Status)
	}
	if hits, _ := u.PWCStats(); hits == 0 {
		t.Fatal("expected at least one PWC hit in this sequence")
	}
}

// TestPWCDisabled checks that PWCEntries <= 0 turns the cache off
// entirely: no stats move and stale paths are never served.
func TestPWCDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PWCEntries = 0
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(testDev, []int64{80})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)
	_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	ft.Detach(tab, base)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("with PWC off a detach faults immediately, got %v", r.Status)
	}
	if hits, misses := u.PWCStats(); hits != 0 || misses != 0 {
		t.Fatalf("PWCStats = %d/%d with cache off, want 0/0", hits, misses)
	}
}

// TestPWCLatencyKnobs exercises the modeled side: with explicit
// PWCHitWalkLatency/PWCMinTranslation a warm same-region access is
// charged the shorter walk, while the defaults (-1 sentinels) keep the
// classic numbers — the byte-identity invariant of DESIGN.md §10.
func TestPWCLatencyKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PWCHitWalkLatency = 50 * sim.Nanosecond
	cfg.PWCMinTranslation = 400 * sim.Nanosecond
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80, 88}, true)

	cold := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	if cold.Latency != 550*sim.Nanosecond {
		t.Fatalf("cold latency = %v, want the 550ns floor (full walk)", cold.Latency)
	}
	warm := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + 4096, Bytes: 4096})
	// 345ns PCIe + 50ns leaf fetch = 395ns, floored at the PWC floor.
	if warm.Latency != 400*sim.Nanosecond {
		t.Fatalf("warm latency = %v, want 400ns (PWC floor)", warm.Latency)
	}

	// Default sentinels: warm or cold, the classic model applies.
	ud := New(DefaultConfig())
	buildMapping(ud, 1, base, []int64{80, 88}, true)
	c2 := ud.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	w2 := ud.Translate(Request{PASID: 1, DevID: testDev, VBA: base + 4096, Bytes: 4096})
	if c2.Latency != w2.Latency || w2.Latency != 550*sim.Nanosecond {
		t.Fatalf("default config latencies = %v/%v, want 550ns/550ns", c2.Latency, w2.Latency)
	}
}

// TestPWCEvictionFIFO bounds the cache: with 2 entries, touching a
// third region evicts the oldest, so re-touching it misses again.
func TestPWCEvictionFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PWCEntries = 2
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	// Three 2 MiB regions: pages 0, 512, 1024 of one file table.
	ft := pagetable.NewFileTable(testDev)
	for _, pg := range []int{0, 512, 1024} {
		ft.SetPage(pg, int64(80+pg*8))
	}
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)

	touch := func(region int) {
		r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + uint64(region)*pagetable.PMDSpan, Bytes: 4096})
		if r.Status != OK {
			t.Fatalf("region %d: %v", region, r.Status)
		}
	}
	touch(0)
	touch(1)
	touch(2) // evicts region 0
	touch(0) // must miss again
	hits, misses := u.PWCStats()
	if hits != 0 || misses != 4 {
		t.Fatalf("PWCStats = %d/%d, want 0 hits / 4 misses", hits, misses)
	}
	touch(2) // still resident
	if h, _ := u.PWCStats(); h != 1 {
		t.Fatalf("hits = %d after re-touching resident region, want 1", h)
	}
}

// TestInvalidateRangePartialPage is the alignment regression test: a
// byte range that starts or ends mid-page must still drop every
// translation it overlaps (lo rounds down, hi rounds up), matching how
// fmap attach spans are always page-covering.
func TestInvalidateRangePartialPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(testDev, []int64{80, 88, 96})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)
	for pg := 0; pg < 3; pg++ {
		_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + uint64(pg)*4096, Bytes: 4096})
	}
	if _, misses := u.TLBStats(); misses != 3 {
		t.Fatalf("warmup misses = %d, want 3", misses)
	}

	// 512 bytes starting mid-page 0, ending within page 0: drops page 0
	// only. Then 512 bytes straddling the page 1/2 boundary: drops both.
	u.InvalidateRange(1, base+1024, 512)
	u.InvalidateRange(1, base+2*4096-256, 512)
	hits0, misses0 := u.TLBStats()
	for pg := 0; pg < 3; pg++ {
		_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + uint64(pg)*4096, Bytes: 4096})
	}
	hits1, misses1 := u.TLBStats()
	if misses1-misses0 != 3 || hits1 != hits0 {
		t.Fatalf("after partial-page invalidates: hits +%d misses +%d, want +0/+3 (all pages dropped)",
			hits1-hits0, misses1-misses0)
	}
}

func TestDevIDMismatchDenied(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	r := u.Translate(Request{PASID: 1, DevID: testDev + 1, VBA: base, Bytes: 4096})
	if r.Status != Denied {
		t.Fatalf("status = %v, want denied (cross-device VBA use)", r.Status)
	}
}

func TestWritePermissionDenied(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, false) // read-only attach
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != OK {
		t.Fatalf("read on RO mapping = %v", r.Status)
	}
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096, Write: true}); r.Status != Denied {
		t.Fatalf("write on RO mapping = %v, want denied", r.Status)
	}
	_, denials := u.FaultStats()
	if denials != 1 {
		t.Fatalf("denials = %d, want 1", denials)
	}
}

func TestRegularPTEIsNotAValidVBA(t *testing.T) {
	u := New(DefaultConfig())
	tab := pagetable.New()
	va := uint64(0x2000_0000_0000)
	tab.Map(va, pagetable.MakePTE(1234, true)) // ordinary memory page
	u.RegisterPASID(1, tab)
	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: va, Bytes: 4096})
	if r.Status != Fault {
		t.Fatalf("status = %v, want fault: PTE without FT bit must not translate", r.Status)
	}
}

func TestLatencyFloor(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	if r.Latency != 550*sim.Nanosecond {
		t.Fatalf("latency = %v, want 550ns floor", r.Latency)
	}
}

func TestLatencyGrowsSlowlyWithTranslations(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	lbas := make([]int64, 32)
	for i := range lbas {
		lbas[i] = int64(80 + i*8)
	}
	buildMapping(u, 1, base, lbas, true)

	// The total charged to the device is floored at 550 ns and must
	// never shrink as the request grows.
	var prev sim.Time
	for pages := 1; pages <= 32; pages++ {
		r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: int64(pages) * 4096})
		if r.Status != OK {
			t.Fatalf("status at %d pages = %v", pages, r.Status)
		}
		if r.Latency < 550*sim.Nanosecond || r.Latency < prev {
			t.Fatalf("latency at %d pages = %v (prev %v)", pages, r.Latency, prev)
		}
		prev = r.Latency
	}

	// Fig. 5 plots the IOMMU-internal overhead: flat for 1-2
	// translations, a small step at 3, flat again to 8 (one
	// cacheline holds 8 PTEs), then one fetch per extra cacheline.
	l1, l2, l3, l8, l12 := u.WalkOverhead(1), u.WalkOverhead(2), u.WalkOverhead(3), u.WalkOverhead(8), u.WalkOverhead(12)
	if l1 != l2 {
		t.Fatalf("1 vs 2 translations: %v vs %v, want equal (Fig. 5)", l1, l2)
	}
	if l3 <= l2 {
		t.Fatalf("3 translations %v not above 2 (%v)", l3, l2)
	}
	if l8 != l3 {
		t.Fatalf("3..8 translations should be flat: %v vs %v", l3, l8)
	}
	if l12 <= l8 || l12-l8 > 50*sim.Nanosecond {
		t.Fatalf("9th translation adds one cacheline: l8=%v l12=%v", l8, l12)
	}
}

func TestFixedVBALatencyOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedVBALatency = 1350 * sim.Nanosecond
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	if r.Latency != 1350*sim.Nanosecond {
		t.Fatalf("latency = %v, want fixed 1350ns", r.Latency)
	}
	cfg.FixedVBALatency = 0
	u.SetConfig(cfg)
	r = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	if r.Latency != 0 {
		t.Fatalf("latency = %v, want 0 (no-delay point)", r.Latency)
	}
}

func TestFTECachingAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)

	r1 := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	if r1.Latency < 550*sim.Nanosecond {
		t.Fatalf("cold translation = %v, want >= 550ns", r1.Latency)
	}
	r2 := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	want := pcieRoundTrip + iotlbLookup // ~352ns: the Fig. 8 "350ns" point
	if r2.Latency != want {
		t.Fatalf("cached translation = %v, want %v", r2.Latency, want)
	}
	hits, _ := u.TLBStats()
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

func TestCachedEntryRespectsReadOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, false) // read-only
	// Warm the cache with a read...
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != OK {
		t.Fatalf("read = %v", r.Status)
	}
	// ...then ensure a write through the cached entry is still denied.
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096, Write: true}); r.Status != Denied {
		t.Fatalf("cached write = %v, want denied", r.Status)
	}
}

func TestInvalidateRange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(testDev, []int64{80, 88})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, true); err != nil {
		t.Fatal(err)
	}
	u.RegisterPASID(1, tab)
	_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 8192})

	// Revoke: detach + invalidate. A stale IOTLB entry must not let
	// the device through.
	ft.Detach(tab, base)
	u.InvalidateRange(1, base, 8192)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("post-invalidate = %v, want fault", r.Status)
	}
}

func TestIOTLBEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheFTEs = true
	cfg.IOTLBEntries = 2
	u := New(cfg)
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80, 88, 96}, true)
	for pg := 0; pg < 3; pg++ {
		_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + uint64(pg)*4096, Bytes: 4096})
	}
	// Page 0 was evicted (FIFO): re-translating it misses.
	_, missesBefore := u.TLBStats()
	_ = u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096})
	_, missesAfter := u.TLBStats()
	if missesAfter != missesBefore+1 {
		t.Fatalf("expected FIFO eviction miss: misses %d -> %d", missesBefore, missesAfter)
	}
}

func TestUnregisterPASID(t *testing.T) {
	u := New(DefaultConfig())
	base := uint64(0x2000_0000_0000)
	buildMapping(u, 1, base, []int64{80}, true)
	u.UnregisterPASID(1)
	if r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base, Bytes: 4096}); r.Status != Fault {
		t.Fatalf("status after unregister = %v", r.Status)
	}
}

// Property: translated segments always cover exactly the requested
// byte count, and every sector falls inside some mapped page's range.
func TestSegmentsCoverRequestProperty(t *testing.T) {
	base := uint64(0x2000_0000_0000)
	f := func(rawPages uint8, rawOff, rawLen uint16, seed int64) bool {
		nPages := int(rawPages)%16 + 1
		lbas := make([]int64, nPages)
		x := seed
		for i := range lbas {
			x = x*6364136223846793005 + 1442695040888963407
			lbas[i] = (x >> 33 & 0xffff) * 8 // 4KB-aligned sectors
			if lbas[i] < 0 {
				lbas[i] = -lbas[i]
			}
		}
		u := New(DefaultConfig())
		buildMapping(u, 1, base, lbas, true)

		off := (int64(rawOff) % (int64(nPages) * 4096 / 512)) * 512
		maxLen := int64(nPages)*4096 - off
		length := (int64(rawLen)%(maxLen/512) + 1) * 512
		r := u.Translate(Request{PASID: 1, DevID: testDev, VBA: base + uint64(off), Bytes: length})
		if r.Status != OK {
			return false
		}
		var total int64
		for _, s := range r.Segments {
			total += s.Sectors * 512
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDMAEngineTable4(t *testing.T) {
	u := New(DefaultConfig())
	e := NewDMAEngine(u)

	// Row 1: IOMMU off.
	e.Enabled = false
	if got := e.Copy(1, 0x1000, 0x2000); got != 1120*sim.Nanosecond {
		t.Fatalf("IOMMU off = %v, want 1120ns", got)
	}

	// Row 2: IOMMU on, constant src/dest => IOTLB hits after warmup.
	e.Enabled = true
	e.FlushTLB()
	_ = e.Copy(1, 0x1000, 0x2000) // warm
	hit := e.Copy(1, 0x1000, 0x2000)
	if hit != 1134*sim.Nanosecond {
		t.Fatalf("IOTLB hit = %v, want 1134ns", hit)
	}

	// Row 3: varying src => one miss per copy.
	miss := e.Copy(1, 0x9000, 0x2000)
	if miss != 1317*sim.Nanosecond {
		t.Fatalf("IOTLB miss = %v, want 1317ns", miss)
	}
}
