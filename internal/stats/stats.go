// Package stats provides the measurement machinery used by the
// benchmark harness: log-bucketed latency histograms with percentile
// queries, throughput counters, per-interval time series, and plain
// text table rendering for experiment output.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/sim"
)

// Histogram records latency samples in logarithmic buckets
// (HDR-histogram style: power-of-two major buckets each split into 32
// linear sub-buckets), giving <3.2% relative error across the full
// nanosecond-to-second range with constant memory. Bucket counts live
// in a dense slice indexed by bucket number, so percentile queries are
// a single allocation-free scan.
type Histogram struct {
	counts []int64
	total  int64
	sum    float64
	max    sim.Time
	// The pad gives the histogram a cache line of its own: the planes
	// allocate one per device or tenant side by side in coupled setup,
	// and each takes a sample per request in a parallel drain.
	_ [sim.CacheLine - 48]byte
}

const subBuckets = 32

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v sim.Time) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// major = floor(log2(v)) relative to subBuckets scale
	major := bits.Len64(uint64(v)) - 1
	shift := major - 5 // log2(subBuckets)
	sub := int(v >> uint(shift) & (subBuckets - 1))
	return (major-4)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket index b.
func bucketLow(b int) sim.Time {
	if b < subBuckets {
		return sim.Time(b)
	}
	major := b/subBuckets + 4
	sub := b % subBuckets
	shift := major - 5
	return sim.Time((int64(1)<<uint(major) + int64(sub)<<uint(shift)))
}

// grow extends the dense bucket slice to hold index n-1, with slack
// so repeated growth is amortized.
func (h *Histogram) grow(n int) {
	if c := 2 * len(h.counts); n < c {
		n = c
	}
	counts := make([]int64, n)
	copy(counts, h.counts)
	h.counts = counts
}

// Add records one sample.
func (h *Histogram) Add(v sim.Time) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		h.grow(b + 1)
	}
	h.counts[b]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean reports the arithmetic mean of all samples.
func (h *Histogram) Mean() sim.Time {
	if h.total == 0 {
		return 0
	}
	return sim.Time(h.sum / float64(h.total))
}

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile reports the value at quantile q in [0,100], e.g. 99.9.
// The value returned is the lower bound of the bucket containing the
// quantile sample. The dense bucket slice is already in value order,
// so this is one allocation-free scan.
func (h *Histogram) Percentile(q float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			return bucketLow(b)
		}
	}
	return h.max
}

// PercentileMulti reports the values at each quantile in qs (each in
// [0,100]) with a single scan of the bucket slice, index-aligned with
// qs. Each result is exactly what Percentile would return for the
// same quantile; the one-pass form exists so SLO summaries that need
// p50/p99/p999 together do not pay three scans. qs must be sorted
// ascending.
func (h *Histogram) PercentileMulti(qs ...float64) []sim.Time {
	out := make([]sim.Time, len(qs))
	if h.total == 0 {
		return out
	}
	ranks := make([]int64, len(qs))
	for i, q := range qs {
		if i > 0 && q < qs[i-1] {
			panic("stats: PercentileMulti quantiles must be ascending")
		}
		r := int64(math.Ceil(q / 100 * float64(h.total)))
		if r < 1 {
			r = 1
		}
		ranks[i] = r
	}
	qi := 0
	var seen int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		for qi < len(qs) && seen >= ranks[qi] {
			out[qi] = bucketLow(b)
			qi++
		}
		if qi == len(qs) {
			return out
		}
	}
	for ; qi < len(qs); qi++ {
		out[qi] = h.max
	}
	return out
}

// Summary is a fixed percentile digest of a histogram — the surface
// the tenancy plane's SLO accounting reports per tenant.
type Summary struct {
	Count int64
	Mean  sim.Time
	P50   sim.Time
	P99   sim.Time
	P999  sim.Time
}

// Summarize computes the standard digest in one bucket scan.
func (h *Histogram) Summarize() Summary {
	p := h.PercentileMulti(50, 99, 99.9)
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   p[0],
		P99:   p[1],
		P999:  p[2],
	}
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts))
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Throughput converts an operation count over a virtual duration into
// operations per second.
func Throughput(ops int64, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(ops) / dur.Seconds()
}

// BytesPerSec converts a byte count over a virtual duration into MB/s
// (decimal megabytes, as used in the paper's bandwidth plots).
func BytesPerSec(bytes int64, dur sim.Time) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(bytes) / dur.Seconds()
}

// Series accumulates per-interval counts for time-series plots such as
// the Fig. 12 revocation timeline.
type Series struct {
	Interval sim.Time
	buckets  []int64
}

// NewSeries returns a series with the given bucket width.
func NewSeries(interval sim.Time) *Series {
	if interval <= 0 {
		panic("stats: series interval must be positive")
	}
	return &Series{Interval: interval}
}

// Record adds n to the bucket containing virtual time t.
func (s *Series) Record(t sim.Time, n int64) {
	idx := int(t / s.Interval)
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += n
}

// Buckets returns the per-interval totals.
func (s *Series) Buckets() []int64 { return s.buckets }

// Rate returns bucket i's count expressed per second.
func (s *Series) Rate(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return float64(s.buckets[i]) / s.Interval.Seconds()
}

// Table renders experiment results as aligned plain text, mirroring
// the row/column structure of the paper's tables and figures.
//
// AddRow and String are safe for concurrent use, so a table shared by
// fanned-out sweep workers cannot be corrupted — though callers who
// need a deterministic row order (every experiment harness does)
// should still collect per-cell results and append from one
// goroutine.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string

	mu sync.Mutex
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells format with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.mu.Lock()
	t.Rows = append(t.Rows, row)
	t.mu.Unlock()
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += "== " + t.Title + " ==\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += pad(c, widths[i])
		}
		return s + "\n"
	}
	out += line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = dashes(widths[i])
	}
	out += line(sep)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
