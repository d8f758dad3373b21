// Package pagetable implements x86-64-style 4-level radix page tables
// extended with BypassD's File Table Entries (FTEs).
//
// An FTE is a leaf page-table entry that carries a device Logical
// Block Address (in 512 B sectors) plus a device ID in place of a
// physical frame number, distinguished by the FT bit (paper Fig. 3).
// The kernel file system builds *shared* file-table fragments —
// bottom-up radix subtrees whose leaves are FTEs — and attaches them
// into a process's private page table at PMD (2 MiB) granularity
// during fmap() (paper Fig. 4, §4.1).
//
// Per-open access rights live in the private attachment entry: shared
// FTE leaves always carry R/W, and the effective permission of a walk
// is the AND of the R/W bits along the path, exactly as the paper
// describes for processes opening the same file with different modes.
package pagetable

import (
	"fmt"
	"sync"
)

// Virtual-memory geometry.
const (
	PageSize   = 4096            // bytes mapped by one leaf entry
	PageShift  = 12              //
	EntriesPer = 512             // entries per table node
	PMDSpan    = PageSize * 512  // 2 MiB: bytes mapped by one leaf node
	MaxVA      = uint64(1) << 47 // user half of the canonical space

	// sectorsPerPage is the LBA stride between consecutive mapped
	// pages (512-byte device sectors per 4 KiB page), used by SetRun.
	sectorsPerPage = PageSize / 512
)

// Entry is a page-table entry. Bit layout (simulation-defined but in
// the spirit of x86-64 + paper Fig. 3):
//
//	bit 0      present
//	bit 1      writable (R/W)
//	bit 2      user
//	bits 12-47 payload: PFN for regular entries, LBA sector for FTEs
//	bits 48-55 DevID (FTEs only)
//	bit 58     FT — file table entry marker
type Entry uint64

// Entry flag bits.
const (
	FlagPresent Entry = 1 << 0
	FlagRW      Entry = 1 << 1
	FlagUser    Entry = 1 << 2
	FlagFT      Entry = 1 << 58

	payloadShift       = 12
	payloadMask  Entry = ((1 << 36) - 1) << payloadShift
	devIDShift         = 48
	devIDMask    Entry = 0xff << devIDShift
)

// MakeFTE builds a file table entry mapping one 4 KiB file page to the
// device sector lba on device devID. Shared FTEs always carry R/W;
// restrictive permissions are applied at the attachment point.
func MakeFTE(lba int64, devID uint8) Entry {
	if lba < 0 || lba >= 1<<36 {
		panic(fmt.Sprintf("pagetable: LBA %d out of range", lba))
	}
	return FlagPresent | FlagRW | FlagUser | FlagFT |
		Entry(lba)<<payloadShift | Entry(devID)<<devIDShift
}

// Present reports whether the entry is valid.
func (e Entry) Present() bool { return e&FlagPresent != 0 }

// RW reports whether the entry permits writes.
func (e Entry) RW() bool { return e&FlagRW != 0 }

// FT reports whether the entry is a file table entry.
func (e Entry) FT() bool { return e&FlagFT != 0 }

// LBA returns the device sector payload of an FTE.
func (e Entry) LBA() int64 { return int64((e & payloadMask) >> payloadShift) }

// DevID returns the device identifier of an FTE.
func (e Entry) DevID() uint8 { return uint8((e & devIDMask) >> devIDShift) }

// Node is one radix-tree node: 512 entries plus, for non-leaf levels,
// the corresponding child pointers (the simulation's stand-in for the
// physical frames the entries would reference).
type Node struct {
	entries [EntriesPer]Entry
	// children is allocated lazily: leaf nodes (file-table fragments,
	// PT leaves) never populate it, keeping them pointer-free — the
	// garbage collector skips their 4 KiB entry arrays entirely.
	children *[EntriesPer]*Node
}

// child returns child i, or nil when no child array exists.
func (n *Node) child(i int) *Node {
	if n.children == nil {
		return nil
	}
	return n.children[i]
}

// setChild stores child i, allocating the child array on first use.
func (n *Node) setChild(i int, c *Node) {
	if n.children == nil {
		if c == nil {
			return
		}
		n.children = new([EntriesPer]*Node)
	}
	n.children[i] = c
}

// nodePool recycles Nodes across the thousands of systems an
// experiment sweep boots. Nodes are cleared on Put, so a pooled node
// is indistinguishable from a fresh one and holds no references.
var nodePool sync.Pool

// getNode returns a zeroed node, recycled when one is free.
func getNode() *Node {
	if v := nodePool.Get(); v != nil {
		return v.(*Node)
	}
	return &Node{}
}

// putNode clears n and returns it to the pool. Only whole-machine
// teardown may call it (via FileTable.Release): any table still
// holding n as a child would alias the next tenant.
func putNode(n *Node) {
	clear(n.entries[:])
	n.children = nil
	nodePool.Put(n)
}

// Entry returns entry i of the node.
func (n *Node) Entry(i int) Entry { return n.entries[i] }

// index extracts the 9-bit table index for level lvl (4=PGD .. 1=PT).
func index(va uint64, lvl int) int {
	return int(va >> uint(PageShift+9*(lvl-1)) & (EntriesPer - 1))
}

// Table is a process page table tree.
type Table struct {
	root *Node
}

// New returns an empty page table.
func New() *Table { return &Table{root: &Node{}} }

// WalkResult describes the outcome of a page walk.
type WalkResult struct {
	Entry Entry // the leaf entry (zero if !Found)
	EffRW bool  // AND of R/W bits along the walk path
	Found bool  // a present leaf entry was reached
}

// Walk resolves va to its leaf entry, tracking the effective
// permission along the path.
func (t *Table) Walk(va uint64) WalkResult {
	if va >= MaxVA {
		return WalkResult{}
	}
	n := t.root
	effRW := true
	for lvl := 4; lvl >= 2; lvl-- {
		i := index(va, lvl)
		e := n.entries[i]
		c := n.child(i)
		if !e.Present() || c == nil {
			return WalkResult{}
		}
		effRW = effRW && e.RW()
		n = c
	}
	leaf := n.entries[index(va, 1)]
	if !leaf.Present() {
		return WalkResult{}
	}
	return WalkResult{Entry: leaf, EffRW: effRW && leaf.RW(), Found: true}
}

// LeafFor descends the three upper levels and returns the resident
// leaf node covering va's 2 MiB region plus the AND of the R/W bits
// along the descent. ok is false when the descent dead-ends.
//
// Exposing the node lets callers stay resident in it — the IOMMU's
// segment walker and paging-structure cache stream all 512 entries of
// a 2 MiB region from one descent instead of re-walking per page.
func (t *Table) LeafFor(va uint64) (leaf *Node, effRW bool, ok bool) {
	if va >= MaxVA {
		return nil, false, false
	}
	n := t.root
	effRW = true
	for lvl := 4; lvl >= 2; lvl-- {
		i := index(va, lvl)
		e := n.entries[i]
		c := n.child(i)
		if !e.Present() || c == nil {
			return nil, false, false
		}
		effRW = effRW && e.RW()
		n = c
	}
	return n, effRW, true
}

// ensurePath builds intermediate nodes down to the leaf table
// containing va and returns that leaf node. Intermediate pointer
// entries are created present+RW+user.
func (t *Table) ensurePath(va uint64) *Node {
	n := t.root
	for lvl := 4; lvl >= 2; lvl-- {
		i := index(va, lvl)
		c := n.child(i)
		if c == nil {
			c = &Node{}
			n.setChild(i, c)
			n.entries[i] = FlagPresent | FlagRW | FlagUser
		}
		n = c
	}
	return n
}

// Map installs a leaf entry for va, creating intermediate levels.
func (t *Table) Map(va uint64, e Entry) {
	if va >= MaxVA {
		panic(fmt.Sprintf("pagetable: va %#x out of range", va))
	}
	t.ensurePath(va).entries[index(va, 1)] = e
}

// AttachPMD splices a shared leaf node (one 2 MiB file-table fragment)
// into the table at va, which must be PMD-aligned. The R/W bit of the
// private PMD entry encodes this process's access right for the
// fragment (paper §4.1: per-open permissions live in the private part
// of the tree). It returns the number of intermediate entries created,
// for fmap() cost accounting.
func (t *Table) AttachPMD(va uint64, frag *Node, rw bool) (created int, err error) {
	if va%PMDSpan != 0 {
		return 0, fmt.Errorf("pagetable: attach va %#x not 2MiB aligned", va)
	}
	if va >= MaxVA {
		return 0, fmt.Errorf("pagetable: va %#x out of range", va)
	}
	n := t.root
	for lvl := 4; lvl >= 3; lvl-- {
		i := index(va, lvl)
		c := n.child(i)
		if c == nil {
			c = &Node{}
			n.setChild(i, c)
			n.entries[i] = FlagPresent | FlagRW | FlagUser
			created++
		}
		n = c
	}
	i := index(va, 2)
	e := FlagPresent | FlagUser
	if rw {
		e |= FlagRW
	}
	n.entries[i] = e
	n.setChild(i, frag)
	return created, nil
}

// DetachPMD removes the fragment attached at va, if any. Detaching
// makes every VBA in the 2 MiB range fault in the IOMMU — this is the
// revocation primitive (paper §3.6).
func (t *Table) DetachPMD(va uint64) {
	if va%PMDSpan != 0 {
		return
	}
	n := t.root
	for lvl := 4; lvl >= 3; lvl-- {
		if n = n.child(index(va, lvl)); n == nil {
			return
		}
	}
	i := index(va, 2)
	n.setChild(i, nil)
	n.entries[i] = 0
}

// FileTable is the shared, pre-populated set of leaf fragments mapping
// one file's blocks, cached in the file's VFS inode (paper §4.1). Each
// fragment covers 2 MiB of the file. Because fragments are shared by
// every process that fmap()s the file, extending the file patches all
// mappings at once.
type FileTable struct {
	DevID uint8
	frags []*Node
	pages int
	// present counts mapped entries so PTEs() — charged on every
	// cold fmap — does not rescan the whole table.
	present int
}

// NewFileTable returns an empty file table for a file on devID.
func NewFileTable(devID uint8) *FileTable {
	return &FileTable{DevID: devID}
}

func (ft *FileTable) growTo(pages int) {
	for pages > len(ft.frags)*EntriesPer {
		ft.frags = append(ft.frags, getNode())
	}
	if pages > ft.pages {
		ft.pages = pages
	}
}

// Release returns the table's fragments to the node pool. Only a
// teardown path that owns the whole machine may call it: processes
// with the file fmap()ed still hold the fragments as PMD children,
// and any later walk would alias recycled nodes.
func (ft *FileTable) Release() {
	for i, f := range ft.frags {
		putNode(f)
		ft.frags[i] = nil
	}
	ft.frags = nil
	ft.pages = 0
	ft.present = 0
}

// SetPage maps file page idx to device sector lba, growing the
// fragment list as needed.
func (ft *FileTable) SetPage(idx int, lba int64) {
	if idx < 0 {
		panic("pagetable: negative page index")
	}
	ft.growTo(idx + 1)
	slot := &ft.frags[idx/EntriesPer].entries[idx%EntriesPer]
	if !slot.Present() {
		ft.present++
	}
	*slot = MakeFTE(lba, ft.DevID)
}

// SetRun maps n consecutive file pages starting at idx to consecutive
// sectors starting at lba, the common shape of an extent. It fills
// fragment arrays directly instead of re-deriving the fragment and
// flag bits per page.
func (ft *FileTable) SetRun(idx int, lba int64, n int) {
	if n <= 0 {
		return
	}
	if idx < 0 {
		panic("pagetable: negative page index")
	}
	if lba < 0 || lba+int64(n)*sectorsPerPage > 1<<36 {
		panic(fmt.Sprintf("pagetable: LBA run [%d,+%d) out of range", lba, n))
	}
	ft.growTo(idx + n)
	fte := MakeFTE(lba, ft.DevID)
	const step = Entry(sectorsPerPage) << payloadShift
	for n > 0 {
		frag := ft.frags[idx/EntriesPer]
		i := idx % EntriesPer
		run := EntriesPer - i
		if run > n {
			run = n
		}
		for k := i; k < i+run; k++ {
			if !frag.entries[k].Present() {
				ft.present++
			}
			frag.entries[k] = fte
			fte += step
		}
		idx += run
		n -= run
	}
}

// ClearPage unmaps file page idx (block deallocated). Present pages
// beyond remain mapped; Pages() is unchanged.
func (ft *FileTable) ClearPage(idx int) {
	if idx < 0 || idx >= len(ft.frags)*EntriesPer {
		return
	}
	slot := &ft.frags[idx/EntriesPer].entries[idx%EntriesPer]
	if slot.Present() {
		ft.present--
	}
	*slot = 0
}

// Truncate drops all pages at or beyond page idx.
func (ft *FileTable) Truncate(idx int) {
	for i := idx; i < ft.pages; i++ {
		ft.ClearPage(i)
	}
	if idx < ft.pages {
		ft.pages = idx
	}
}

// Pages reports the number of file pages covered (including holes).
func (ft *FileTable) Pages() int { return ft.pages }

// Fragments returns the shared leaf nodes, each covering 2 MiB.
func (ft *FileTable) Fragments() []*Node { return ft.frags }

// PTEs reports the count of present entries, for cold-fmap cost and
// memory-overhead accounting (8 bytes per entry, paper §6.3).
func (ft *FileTable) PTEs() int { return ft.present }

// SpanBytes reports the virtual-region size needed to attach the
// table: the file size rounded up to 2 MiB fragments.
func (ft *FileTable) SpanBytes() uint64 {
	return uint64(len(ft.frags)) * PMDSpan
}

// Attach splices every fragment of the file table into t starting at
// base (PMD-aligned), with the given access right. It returns the
// total intermediate entries created plus one pointer update per
// fragment, the work a warm fmap() performs.
func (ft *FileTable) Attach(t *Table, base uint64, rw bool) (updates int, err error) {
	if base%PMDSpan != 0 {
		return 0, fmt.Errorf("pagetable: base %#x not 2MiB aligned", base)
	}
	for i, frag := range ft.frags {
		created, err := t.AttachPMD(base+uint64(i)*PMDSpan, frag, rw)
		if err != nil {
			return updates, err
		}
		updates += created + 1
	}
	return updates, nil
}
