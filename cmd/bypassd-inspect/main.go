// Command bypassd-inspect boots a small system, performs a scripted
// sequence of file operations, and dumps the internal state that the
// BypassD mechanism depends on: the ext4 layout, a file's extent map,
// its shared file table, the attached page-table view, and the IOMMU
// translation of a sample VBA. It is a debugging/teaching tool for
// the architecture.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

func main() {
	size := flag.Int64("filesize", 8<<20, "demo file size in bytes")
	flag.Parse()

	sys, err := core.New(1 << 30)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err = sys.M.Drive("inspect", 1, func(p *sim.Proc, _ func(error)) error {
		return inspect(p, sys, *size)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func inspect(p *sim.Proc, sys *core.System, size int64) error {
	sb := sys.M.FS.Super()
	fmt.Println("== ext4 layout (4 KiB blocks)")
	fmt.Printf("  blocks      %d (%d MiB)\n", sb.BlockCount, sb.BlockCount*4096>>20)
	fmt.Printf("  bitmap      [%d, %d)\n", sb.BitmapStart, sb.BitmapStart+sb.BitmapBlocks)
	fmt.Printf("  inode table [%d, %d) (%d inodes)\n", sb.InodeStart, sb.InodeStart+sb.InodeBlocks, sb.InodeCount)
	fmt.Printf("  journal     [%d, %d)\n", sb.JournalStart, sb.JournalStart+sb.JournalBlocks)
	fmt.Printf("  data        [%d, %d)\n", sb.DataStart, sb.BlockCount)

	pr := sys.NewProcess(ext4.Root)
	fd, err := pr.Create(p, "/demo", 0o644)
	if err != nil {
		return err
	}
	if err := pr.Fallocate(p, fd, size); err != nil {
		return err
	}
	if err := pr.Fsync(p, fd); err != nil {
		return err
	}
	if err := pr.Close(p, fd); err != nil {
		return err
	}

	in, err := sys.M.FS.Lookup(p, "/demo", ext4.Root)
	if err != nil {
		return err
	}
	fmt.Printf("\n== inode %d (/demo, %d bytes)\n", in.Ino, in.Size)
	fmt.Printf("  extents: %d\n", len(in.Extents))
	for i, e := range in.Extents {
		if i == 4 {
			fmt.Printf("  ... (%d more)\n", len(in.Extents)-4)
			break
		}
		fmt.Printf("  file blocks [%d,+%d) -> disk blocks [%d,+%d)\n",
			e.FileBlock, e.Count, e.Start, e.Count)
	}

	reader := sys.NewProcess(ext4.Root)
	rfd, base, err := reader.OpenBypass(p, "/demo", false)
	if err != nil {
		return err
	}
	if base == 0 {
		return fmt.Errorf("fmap declined")
	}
	_ = rfd
	ft, _ := sys.M.FS.FileTable(in)
	fmt.Printf("\n== shared file table (cached in the VFS inode)\n")
	fmt.Printf("  pages     %d\n", ft.Pages())
	fmt.Printf("  fragments %d x 2MiB\n", len(ft.Fragments()))
	fmt.Printf("  FTEs      %d (%.1f KiB of page-table memory, %.2f%% of file)\n",
		ft.PTEs(), float64(ft.PTEs()*8)/1024, float64(ft.PTEs()*8)*100/float64(size))

	fmt.Printf("\n== process %d mapping\n", reader.PID)
	fmt.Printf("  PASID %d, VBA base %#x\n", reader.PASID, base)
	w := reader.Table.Walk(base + pagetable.PageSize)
	fmt.Printf("  walk(base+4K): found=%v FT=%v LBA=%d devID=%d effRW=%v\n",
		w.Found, w.Entry.FT(), w.Entry.LBA(), w.Entry.DevID(), w.EffRW)

	r := sys.M.MMU.Translate(iommu.Request{
		PASID: reader.PASID,
		DevID: sys.M.Dev.Config().DevID,
		VBA:   base + 4096,
		Bytes: 8192,
	})
	fmt.Printf("\n== IOMMU translation of VBA %#x (+8KiB)\n", base+4096)
	fmt.Printf("  status %v, latency %v, walks %d\n", r.Status, r.Latency, r.Walks)
	for _, seg := range r.Segments {
		fmt.Printf("  sectors [%d, +%d)\n", seg.Sector, seg.Sectors)
	}

	hits, misses := sys.M.MMU.TLBStats()
	faults, denials := sys.M.MMU.FaultStats()
	fmt.Printf("\n== IOMMU counters: tlb %d/%d hit/miss, %d faults, %d denials\n",
		hits, misses, faults, denials)
	return nil
}
