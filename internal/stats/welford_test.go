package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWelfordMatchesNaive: the online accumulator must agree with the
// two-pass textbook formulas across randomized sample sets.
func TestWelfordMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		var sum float64
		for i := range xs {
			xs[i] = rng.NormFloat64()*1e5 + 5e5
			w.Add(xs[i])
			sum += xs[i]
		}
		mean := sum / float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		variance := m2 / float64(n-1)
		if w.Count() != int64(n) {
			t.Fatalf("count = %d, want %d", w.Count(), n)
		}
		if relErr(w.Mean(), mean) > 1e-9 {
			t.Fatalf("mean = %v, naive %v", w.Mean(), mean)
		}
		if relErr(w.Variance(), variance) > 1e-9 {
			t.Fatalf("variance = %v, naive %v", w.Variance(), variance)
		}
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatalf("single sample: mean=%v var=%v ci=%v", w.Mean(), w.Variance(), w.CI95())
	}
	if w.Lower95() != 42 || w.Upper95() != 42 {
		t.Fatal("single-sample CI bounds must collapse to the mean")
	}
	// Constant samples: zero variance, zero CI.
	for i := 0; i < 10; i++ {
		w.Add(42)
	}
	if w.Variance() != 0 || w.CI95() != 0 {
		t.Fatalf("constant samples: var=%v ci=%v", w.Variance(), w.CI95())
	}
}

// TestWelfordCI95: the 5-trial case is the one the statistical gates
// run at — pin its critical value and the hand-computed half-width.
func TestWelfordCI95(t *testing.T) {
	var w Welford
	for _, x := range []float64{10, 12, 14, 16, 18} {
		w.Add(x)
	}
	// mean 14, sample sd sqrt(10), t(4) = 2.776
	want := 2.776 * math.Sqrt(10) / math.Sqrt(5)
	if got := w.CI95(); relErr(got, want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	if lo, hi := w.Lower95(), w.Upper95(); lo >= 14 || hi <= 14 || relErr(hi-lo, 2*w.CI95()) > 1e-12 {
		t.Fatalf("bounds %v..%v inconsistent", lo, hi)
	}
}

func TestTCrit95(t *testing.T) {
	cases := map[int]float64{
		1: 12.706, 4: 2.776, 29: 2.045, 30: 2.042,
		35: 2.042, 40: 2.021, 59: 2.021, 60: 2.000,
		119: 2.000, 120: 1.980, 999: 1.980, 1000: 1.960,
	}
	for df, want := range cases {
		if got := TCrit95(df); got != want {
			t.Errorf("TCrit95(%d) = %v, want %v", df, got, want)
		}
	}
	// Monotone non-increasing in df: more data never widens the CI.
	prev := TCrit95(1)
	for df := 2; df <= 2000; df++ {
		cur := TCrit95(df)
		if cur > prev {
			t.Fatalf("TCrit95 increased at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TCrit95(0) did not panic")
		}
	}()
	TCrit95(0)
}

func TestFmtMatchesAddRow(t *testing.T) {
	for _, v := range []float64{0, 0.123, 5.16, 39.4, 451, 12345.6} {
		tb := NewTable("x", "v")
		tb.AddRow(v)
		if got := Fmt(v); got != tb.Rows[0][0] {
			t.Errorf("Fmt(%v) = %q, AddRow renders %q", v, got, tb.Rows[0][0])
		}
	}
}
