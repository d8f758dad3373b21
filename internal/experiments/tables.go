package experiments

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("T1", "Latency breakdown of 4KB read() on Optane SSD (Table 1)", runT1)
	register("T2", "Lines of code of the reproduction (Table 2 analogue)", runT2)
	register("T4", "IOMMU translation overheads: IOAT DMA copy latency (Table 4)", runT4)
	registerCells("T5", "fmap() overheads by file size (Table 5)", cellsT5)
}

// runT1 measures one synchronous 4 KiB read and decomposes it using
// the calibrated layer costs.
func runT1(o Options) (*Report, error) {
	sys, err := o.boot(1 << 30)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var total sim.Time
	err = sys.M.Drive("t1", 1, func(p *sim.Proc, _ func(error)) error {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/t1", 0o644)
		if err != nil {
			return err
		}
		if err := pr.Fallocate(p, fd, 1<<20); err != nil {
			return err
		}
		if err := pr.Fsync(p, fd); err != nil {
			return err
		}
		buf := make([]byte, 4096)
		if _, err := pr.Pread(p, fd, buf, 0); err != nil { // warm extents
			return err
		}
		start := p.Now()
		if _, err := pr.Pread(p, fd, buf, 4096); err != nil {
			return err
		}
		total = p.Now() - start
		return nil
	})
	if err != nil {
		return nil, err
	}

	device := total - kernel.SyscallEnter - kernel.VFSCost - kernel.BlockLayer - kernel.DriverSubmit - kernel.SyscallExit
	tb := stats.NewTable("Table 1: 4KB read() latency breakdown", "layer", "time (ns)", "% of total")
	row := func(name string, t sim.Time) {
		tb.AddRow(name, int64(t), fmt.Sprintf("%.0f%%", 100*float64(t)/float64(total)))
	}
	row("Kernel user mode switch", kernel.SyscallEnter)
	row("VFS + ext4", kernel.VFSCost)
	row("Block I/O layer", kernel.BlockLayer)
	row("NVMe driver", kernel.DriverSubmit)
	row("Device time", device)
	row("User kernel mode switch", kernel.SyscallExit)
	tb.AddRow("Total", int64(total), "100%")
	return &Report{ID: "T1", Title: "4KB sync read breakdown", Tables: []*stats.Table{tb},
		Notes: []string{"paper: 7850 ns total, 51% device time"}}, nil
}

// runT2 counts Go lines per component of this repository, the
// analogue of the paper's implementation-size table.
func runT2(o Options) (*Report, error) {
	root := "."
	if _, err := os.Stat("go.mod"); err != nil {
		// Invoked from a package directory during `go test`: walk up.
		for _, up := range []string{"..", "../..", "../../.."} {
			if _, err := os.Stat(filepath.Join(up, "go.mod")); err == nil {
				root = up
				break
			}
		}
	}
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		comp := "misc"
		if parts := strings.Split(filepath.ToSlash(rel), "/"); len(parts) >= 2 {
			comp = parts[0] + "/" + parts[1]
		}
		counts[comp] += strings.Count(string(data), "\n")
		return nil
	})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Table 2 analogue: lines of Go per component", "component", "lines")
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tb.AddRow(k, counts[k])
	}
	return &Report{ID: "T2", Title: "implementation size", Tables: []*stats.Table{tb}}, nil
}

// runT4 reproduces the IOAT DMA experiment.
func runT4(o Options) (*Report, error) {
	u := iommu.New(iommu.DefaultConfig())
	u.SetObservers(nil, o.Metrics)
	e := iommu.NewDMAEngine(u)

	tb := stats.NewTable("Table 4: IOAT DMA copy latency", "configuration", "latency (ns)")
	e.Enabled = false
	tb.AddRow("IOMMU off", int64(e.Copy(1, 0x1000, 0x2000)))
	e.Enabled = true
	e.FlushTLB()
	_ = e.Copy(1, 0x1000, 0x2000) // warm
	tb.AddRow("IOMMU on; constant src and dest (IOTLB hit)", int64(e.Copy(1, 0x1000, 0x2000)))
	// Varying source: every copy misses on src.
	var miss sim.Time
	for i := 0; i < 8; i++ {
		miss = e.Copy(1, uint64(0x100000+i*0x1000), 0x2000)
	}
	tb.AddRow("IOMMU on; varying src, const dest (IOTLB miss)", int64(miss))
	return &Report{ID: "T4", Title: "IOMMU translation overheads", Tables: []*stats.Table{tb},
		Notes: []string{"paper: 1120 / 1134 / 1317 ns"}}, nil
}

// cellsT5 measures open, open+warm fmap, and open+cold fmap.
func cellsT5(o Options) *cellReport {
	sizes := []int64{4 << 10, 1 << 20, 64 << 20, 256 << 20, 1 << 30}
	if !o.Quick {
		sizes = append(sizes, 16<<30)
	}
	tb := &cellTable{
		title: "Table 5: fmap() overheads",
		keys:  []string{"file size"},
		cols:  plain("open (µs)", "open+warm fmap (µs)", "open+cold fmap (µs)"),
	}
	for _, size := range sizes {
		tb.cells = append(tb.cells, Cell{
			key: []string{sizeLabel(size)},
			run: func(seed int64) ([]float64, error) { return runT5(o.at(seed), size) },
		})
	}
	return &cellReport{title: "fmap() overheads", notes: []string{"paper 64MB row: 1.74 / 2.76 / 85.51 µs"},
		tables: []*cellTable{tb}}
}

// runT5 times the three ways to open one file of size bytes.
func runT5(o Options, size int64) ([]float64, error) {
	capacity := size*2 + (256 << 20)
	sys, err := o.boot(capacity)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	var openT, warmT, coldT sim.Time
	err = sys.M.Drive("t5", 1, func(p *sim.Proc, _ func(error)) error {
		if err := mkfile(p, sys.NewProcess(ext4.Root), "/big", size); err != nil {
			return err
		}

		// Row 1: plain open.
		pr1 := sys.NewProcess(ext4.Root)
		start := p.Now()
		ofd, err := pr1.Open(p, "/big", false)
		if err != nil {
			return err
		}
		openT = p.Now() - start
		if err := pr1.Close(p, ofd); err != nil {
			return err
		}

		// Row 3: cold fmap (file table not cached).
		in, err := sys.M.FS.Lookup(p, "/big", ext4.Root)
		if err != nil {
			return err
		}
		in.DropFileTable()
		pr2 := sys.NewProcess(ext4.Root)
		start = p.Now()
		_, base, err := pr2.OpenBypass(p, "/big", false)
		if err != nil || base == 0 {
			return fmt.Errorf("cold fmap: base=%d err=%v", base, err)
		}
		coldT = p.Now() - start

		// Row 2: warm fmap (file table cached in the inode).
		pr3 := sys.NewProcess(ext4.Root)
		start = p.Now()
		_, base, err = pr3.OpenBypass(p, "/big", false)
		if err != nil || base == 0 {
			return fmt.Errorf("warm fmap: base=%d err=%v", base, err)
		}
		warmT = p.Now() - start
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []float64{openT.Micros(), warmT.Micros(), coldT.Micros()}, nil
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}
