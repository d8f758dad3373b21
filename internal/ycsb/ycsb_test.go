package ycsb

import (
	"testing"
)

// workloads lists the core workloads A–F.
var workloads = []Workload{A, B, C, D, E, F}

func TestMixProportions(t *testing.T) {
	const n = 100000
	for _, wl := range workloads {
		g := NewGenerator(wl, 1<<20, 1)
		counts := map[OpType]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Type]++
		}
		check := func(op OpType, want float64) {
			got := float64(counts[op]) / n
			if got < want-0.02 || got > want+0.02 {
				t.Errorf("workload %s %v fraction = %.3f, want %.2f", wl.Name, op, got, want)
			}
		}
		check(Read, wl.ReadProp)
		check(Update, wl.UpdateProp)
		check(Insert, 1-wl.ReadProp-wl.UpdateProp-wl.ScanProp-wl.RMWProp)
		check(Scan, wl.ScanProp)
		check(ReadModifyWrite, wl.RMWProp)
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewGenerator(C, 1<<20, 7)
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	// Top-1% of distinct keys should absorb a large share of
	// requests (zipf theta=0.99 concentrates mass heavily).
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	total, top := 0, 0
	for _, f := range freqs {
		total += f
	}
	// max frequency alone should far exceed uniform expectation.
	max := 0
	for _, f := range freqs {
		if f > max {
			max = f
		}
	}
	uniformExpect := float64(n) / (1 << 20)
	if float64(max) < 50*uniformExpect {
		t.Fatalf("zipfian not skewed: max key freq %d vs uniform %.1f", max, uniformExpect)
	}
	_ = top
	_ = total
}

func TestUniformIsNotSkewed(t *testing.T) {
	wl := C
	wl.Dist = Uniform
	g := NewGenerator(wl, 1000, 7)
	counts := map[uint64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) > 3*float64(n)/1000 {
		t.Fatalf("uniform distribution skewed: max %d", max)
	}
}

func TestLatestFavorsRecentKeys(t *testing.T) {
	g := NewGenerator(D, 10000, 3)
	recent := 0
	const n = 50000
	reads := 0
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Type != Read {
			continue
		}
		reads++
		if op.Key >= g.records-g.records/10 {
			recent++
		}
	}
	if float64(recent)/float64(reads) < 0.5 {
		t.Fatalf("latest distribution: only %.2f of reads in newest 10%%", float64(recent)/float64(reads))
	}
}

func TestInsertsGrowKeySpace(t *testing.T) {
	g := NewGenerator(D, 1000, 9)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Type == Insert {
			if op.Key < 1000 {
				t.Fatalf("insert reused existing key %d", op.Key)
			}
			if seen[op.Key] {
				t.Fatalf("insert key %d repeated", op.Key)
			}
			seen[op.Key] = true
		}
		if op.Key >= g.records {
			t.Fatalf("key %d beyond key space %d", op.Key, g.records)
		}
	}
	if g.records == 1000 {
		t.Fatal("no inserts happened in workload D")
	}
}

func TestScanLengths(t *testing.T) {
	g := NewGenerator(E, 10000, 4)
	for i := 0; i < 10000; i++ {
		op := g.Next()
		if op.Type == Scan {
			if op.ScanLen < 1 || op.ScanLen > E.MaxScanLen {
				t.Fatalf("scan length %d out of [1,%d]", op.ScanLen, E.MaxScanLen)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1 := NewGenerator(A, 10000, 42)
	g2 := NewGenerator(A, 10000, 42)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("generators with the same seed diverged")
		}
	}
}

func TestKeysInRange(t *testing.T) {
	for _, wl := range workloads {
		g := NewGenerator(wl, 5000, 11)
		for i := 0; i < 20000; i++ {
			op := g.Next()
			if op.Key >= g.records {
				t.Fatalf("workload %s key %d out of range %d", wl.Name, op.Key, g.records)
			}
		}
	}
}
