package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v, want 100", h.Max())
	}
	if m := h.Mean(); m < 49 || m > 52 {
		t.Fatalf("mean = %v, want ~50.5", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(1000000)) + 1
		samples = append(samples, v)
		h.Add(sim.Time(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(q/100*float64(len(samples)))-1]
		got := int64(h.Percentile(q))
		relErr := float64(got-exact) / float64(exact)
		if relErr < -0.05 || relErr > 0.05 {
			t.Errorf("p%.1f = %d, exact %d (err %.2f%%)", q, got, exact, relErr*100)
		}
	}
}

// Property: bucketLow(bucketOf(v)) <= v and the bucket's relative
// width stays below ~2/32.
func TestBucketBoundsProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := sim.Time(raw)
		b := bucketOf(v)
		low := bucketLow(b)
		if low > v {
			return false
		}
		if v >= 64 {
			// relative error bound: bucket width / value
			if float64(v-low)/float64(v) > 2.0/subBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketInverseFullRange walks every bucket index the encoding can
// produce and checks bucketOf and bucketLow stay exact inverses, so a
// change to either (e.g. the math/bits major computation) cannot skew
// one end of the range silently.
func TestBucketInverseFullRange(t *testing.T) {
	maxIdx := bucketOf(sim.Time(math.MaxInt64))
	for b := 0; b <= maxIdx; b++ {
		low := bucketLow(b)
		if got := bucketOf(low); got != b {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", b, got)
		}
		if b > 0 && bucketLow(b-1) >= low {
			t.Fatalf("bucketLow not strictly increasing at %d: %v >= %v", b, bucketLow(b-1), low)
		}
	}
	// Boundary samples land in the bucket whose [low, nextLow) range
	// contains them, across the whole 63-bit domain.
	for shift := uint(5); shift < 63; shift++ {
		for _, v := range []sim.Time{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			b := bucketOf(v)
			if low := bucketLow(b); low > v {
				t.Fatalf("bucketLow(%d) = %v > sample %v", b, low, v)
			}
			if b < maxIdx {
				if next := bucketLow(b + 1); next <= v {
					t.Fatalf("sample %v at bucket %d overlaps next bucket (low %v)", v, b, next)
				}
			}
		}
	}
}

// Percentile must not allocate: it used to rebuild and sort the bucket
// key set on every call.
func TestPercentileAllocFree(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Add(sim.Time(rng.Intn(1 << 30)))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = h.Percentile(99)
	}); allocs != 0 {
		t.Fatalf("Percentile allocates %v per call, want 0", allocs)
	}
}

func BenchmarkPercentile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		h.Add(sim.Time(rng.Intn(1 << 30)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Percentile(99.9)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Add(sim.Time(10))
		b.Add(sim.Time(1000))
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if a.Max() != 1000 {
		t.Fatalf("merged max = %v", a.Max())
	}
	if p := a.Percentile(25); p > 50 {
		t.Fatalf("p25 = %v, want low bucket", p)
	}
	if p := a.Percentile(75); p < 500 {
		t.Fatalf("p75 = %v, want high bucket", p)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, sim.Second); got != 1000 {
		t.Fatalf("throughput = %f, want 1000", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("throughput over zero duration = %f, want 0", got)
	}
	if got := BytesPerSec(4096, sim.Millisecond); got != 4096000 {
		t.Fatalf("bytes/sec = %f, want 4096000", got)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(sim.Second)
	s.Record(0, 5)
	s.Record(sim.Second/2, 5)
	s.Record(sim.Second+1, 7)
	s.Record(3*sim.Second, 1)
	b := s.Buckets()
	if len(b) != 4 {
		t.Fatalf("buckets = %d, want 4", len(b))
	}
	if b[0] != 10 || b[1] != 7 || b[2] != 0 || b[3] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	if s.Rate(0) != 10 {
		t.Fatalf("rate(0) = %f, want 10", s.Rate(0))
	}
	if s.Rate(99) != 0 {
		t.Fatalf("rate out of range = %f, want 0", s.Rate(99))
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-name", 12345.6)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "longer-name") || !strings.Contains(out, "12346") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestSeriesInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewSeries(0)
}

func TestTableConcurrentAddRow(t *testing.T) {
	tb := NewTable("c", "worker", "i")
	var wg sync.WaitGroup
	const workers, rows = 8, 50
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				tb.AddRow(w, i)
			}
		}()
	}
	wg.Wait()
	if got := len(tb.Rows); got != workers*rows {
		t.Fatalf("rows = %d, want %d", got, workers*rows)
	}
	// Rendering under concurrent appends must not race or corrupt.
	_ = tb.String()
}

// TestPercentileMultiMatchesPercentile: the one-pass multi-quantile
// scan must agree exactly with repeated single-quantile scans, across
// randomized histograms of varying size and value range.
func TestPercentileMultiMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram()
		n := 1 + rng.Intn(5000)
		span := int64(1) << (1 + rng.Intn(40))
		for i := 0; i < n; i++ {
			h.Add(sim.Time(rng.Int63n(span) + 1))
		}
		qs := []float64{1, 25, 50, 90, 99, 99.9, 99.99, 100}
		got := h.PercentileMulti(qs...)
		for i, q := range qs {
			if want := h.Percentile(q); got[i] != want {
				t.Fatalf("trial %d (n=%d): p%v = %v via multi, %v via single", trial, n, q, got[i], want)
			}
		}
	}
}

func TestPercentileMultiEdgeCases(t *testing.T) {
	h := NewHistogram()
	if got := h.PercentileMulti(50, 99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty histogram PercentileMulti = %v, want zeros", got)
	}
	h.Add(7)
	if got := h.PercentileMulti(50, 99, 99.9); got[0] != got[1] || got[1] != got[2] {
		t.Fatalf("single-sample quantiles differ: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("descending quantiles did not panic")
		}
	}()
	h.PercentileMulti(99, 50)
}

// TestHistogramMergeEquivalenceProperty: merging any partition of a
// sample set must be indistinguishable from adding every sample to a
// single histogram — Count, Mean, Min, Max, and every quantile of
// PercentileMulti. Randomized over partition shapes that include
// empty histograms (zero-sample parts) and single-bucket parts
// (all-equal samples), the edge cases a merge that mishandles
// min/max sentinels or bucket growth would get wrong.
func TestHistogramMergeEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{1, 25, 50, 90, 99, 99.9, 100}
	for trial := 0; trial < 60; trial++ {
		parts := 1 + rng.Intn(6)
		hs := make([]*Histogram, parts)
		for i := range hs {
			hs[i] = NewHistogram()
		}
		whole := NewHistogram()
		span := int64(1) << (1 + rng.Intn(40))
		for i, h := range hs {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 0 // empty part
			case 1:
				n = 1
			default:
				n = rng.Intn(800)
			}
			if rng.Intn(5) == 0 {
				// Single-bucket part: every sample identical.
				v := sim.Time(rng.Int63n(span) + 1)
				for j := 0; j < n; j++ {
					h.Add(v)
					whole.Add(v)
				}
				continue
			}
			_ = i
			for j := 0; j < n; j++ {
				v := sim.Time(rng.Int63n(span) + 1)
				h.Add(v)
				whole.Add(v)
			}
		}
		merged := NewHistogram()
		for _, h := range hs {
			merged.Merge(h)
		}
		if merged.Count() != whole.Count() {
			t.Fatalf("trial %d: count %d != %d", trial, merged.Count(), whole.Count())
		}
		if merged.Mean() != whole.Mean() {
			t.Fatalf("trial %d: mean %v != %v", trial, merged.Mean(), whole.Mean())
		}
		if merged.Max() != whole.Max() {
			t.Fatalf("trial %d: max %v != %v", trial, merged.Max(), whole.Max())
		}
		mp := merged.PercentileMulti(qs...)
		wp := whole.PercentileMulti(qs...)
		for i, q := range qs {
			if mp[i] != wp[i] {
				t.Fatalf("trial %d: p%v = %v merged, %v whole", trial, q, mp[i], wp[i])
			}
		}
	}
}

// TestHistogramMergeEmptyBothWays: merging an empty histogram in
// either direction must not disturb min/max or the digest.
func TestHistogramMergeEmptyBothWays(t *testing.T) {
	full := NewHistogram()
	for i := 1; i <= 10; i++ {
		full.Add(sim.Time(i * 100))
	}
	before := full.Summarize()
	full.Merge(NewHistogram())
	if got := full.Summarize(); got != before {
		t.Fatalf("merging empty changed digest: %+v -> %+v", before, got)
	}
	empty := NewHistogram()
	empty.Merge(full)
	if got := empty.Summarize(); got != before {
		t.Fatalf("merge into empty digest = %+v, want %+v", got, before)
	}
}

// TestSummarize: Summary mirrors the individual accessors.
func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(sim.Time(i))
	}
	s := h.Summarize()
	if s.Count != h.Count() {
		t.Fatalf("summary count = %d, want %d", s.Count, h.Count())
	}
	if s.P50 != h.Percentile(50) || s.P99 != h.Percentile(99) || s.P999 != h.Percentile(99.9) {
		t.Fatalf("summary percentiles %v/%v/%v disagree with Percentile", s.P50, s.P99, s.P999)
	}
	if s.Mean != h.Mean() {
		t.Fatalf("summary mean = %v, want %v", s.Mean, h.Mean())
	}
}
