// Package ycsb generates YCSB workloads A-F (Cooper et al.), the
// request streams driving the paper's WiredTiger and KVell
// experiments (Figs. 13, 14, 16). The zipfian generator is the
// standard YCSB implementation (Gray et al.'s algorithm with
// theta = 0.99 and scrambled key order), shared with the service
// tier through internal/workload so both draw from one seeded
// implementation.
package ycsb

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// OpType is a workload operation kind.
type OpType int

// Operation kinds.
const (
	Read OpType = iota
	Update
	Insert
	Scan
	ReadModifyWrite
)

func (t OpType) String() string {
	switch t {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Scan:
		return "scan"
	case ReadModifyWrite:
		return "rmw"
	default:
		return fmt.Sprintf("op(%d)", int(t))
	}
}

// Op is one generated request.
type Op struct {
	Type    OpType
	Key     uint64
	ScanLen int
}

// Dist selects the request distribution.
type Dist string

// Distributions.
const (
	Zipfian Dist = "zipfian"
	Uniform Dist = "uniform"
	Latest  Dist = "latest"
)

// Workload is a YCSB operation mix. The probability the proportions
// leave over is the insert proportion.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	ScanProp   float64
	RMWProp    float64
	Dist       Dist
	MaxScanLen int
}

// The six core workloads.
var (
	A = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Dist: Zipfian}
	B = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Dist: Zipfian}
	C = Workload{Name: "C", ReadProp: 1.0, Dist: Zipfian}
	D = Workload{Name: "D", ReadProp: 0.95, Dist: Latest}                   // 5% inserts
	E = Workload{Name: "E", ScanProp: 0.95, Dist: Zipfian, MaxScanLen: 100} // 5% inserts
	F = Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Dist: Zipfian}
)

const theta = workload.DefaultZipfTheta

// Generator produces a deterministic request stream.
type Generator struct {
	wl      Workload
	rng     *rand.Rand
	zipf    *workload.Zipf
	records uint64 // grows with inserts
}

// NewGenerator creates a generator over records existing keys.
func NewGenerator(wl Workload, records uint64, seed int64) *Generator {
	if records == 0 {
		panic("ycsb: empty key space")
	}
	g := &Generator{
		wl:      wl,
		rng:     rand.New(rand.NewSource(seed)),
		records: records,
	}
	if wl.Dist == Zipfian || wl.Dist == Latest {
		g.zipf = workload.NewZipf(records, theta)
	}
	return g
}

// nextKey samples a key for read-like operations.
func (g *Generator) nextKey() uint64 {
	switch g.wl.Dist {
	case Uniform:
		return uint64(g.rng.Int63n(int64(g.records)))
	case Latest:
		// Most popular = most recently inserted.
		r := g.zipf.Next(g.rng)
		if r >= g.records {
			r = g.records - 1
		}
		return g.records - 1 - r
	default: // zipfian, scrambled
		return workload.Scramble(g.zipf.Next(g.rng)) % g.records
	}
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Float64()
	wl := g.wl
	switch {
	case p < wl.ReadProp:
		return Op{Type: Read, Key: g.nextKey()}
	case p < wl.ReadProp+wl.UpdateProp:
		return Op{Type: Update, Key: g.nextKey()}
	case p < wl.ReadProp+wl.UpdateProp+wl.RMWProp:
		return Op{Type: ReadModifyWrite, Key: g.nextKey()}
	case p < wl.ReadProp+wl.UpdateProp+wl.RMWProp+wl.ScanProp:
		ln := 1
		if wl.MaxScanLen > 1 {
			ln = 1 + g.rng.Intn(wl.MaxScanLen)
		}
		return Op{Type: Scan, Key: g.nextKey(), ScanLen: ln}
	default:
		k := g.records
		g.records++
		return Op{Type: Insert, Key: k}
	}
}
