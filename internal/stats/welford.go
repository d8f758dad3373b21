package stats

import (
	"fmt"
	"math"
)

// Welford is a numerically stable online mean/variance accumulator
// (Welford's algorithm). The experiment plane feeds it one value per
// seeded trial, so its confidence interval speaks about run-to-run
// variation — the error bars behind every multi-trial table column
// and statistical gate.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count reports the number of samples.
func (w *Welford) Count() int64 { return w.n }

// Mean reports the running mean, 0 when empty.
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the unbiased sample variance (n-1 denominator),
// 0 with fewer than two samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 reports the half-width of the two-sided 95% Student-t
// confidence interval for the mean: t(n-1) * s / sqrt(n). With fewer
// than two samples there is no variance estimate and the half-width
// is 0 — callers gating on CI bounds must require n >= 2 trials.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return TCrit95(int(w.n-1)) * w.StdDev() / math.Sqrt(float64(w.n))
}

// Lower95 and Upper95 are the 95% confidence bounds for the mean.
// Statistical gates compare one side's Upper95 against the other's
// Lower95: non-overlap is the CI-enforceable form of "A beats B".
func (w *Welford) Lower95() float64 { return w.mean - w.CI95() }

// Upper95 reports the upper 95% confidence bound for the mean.
func (w *Welford) Upper95() float64 { return w.mean + w.CI95() }

// tCrit95 holds two-sided 95% Student-t critical values for degrees
// of freedom 1..30 (index df-1).
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Beyond the tabulated 30 it steps down through
// the standard anchors (40, 60, 120, ∞), always using the value for
// the largest anchor not exceeding df — conservative (never narrower
// than the exact interval). df must be >= 1.
func TCrit95(df int) float64 {
	switch {
	case df < 1:
		panic(fmt.Sprintf("stats: TCrit95 df=%d, need >= 1", df))
	case df <= 30:
		return tCrit95[df-1]
	case df < 40:
		return tCrit95[29]
	case df < 60:
		return 2.021
	case df < 120:
		return 2.000
	case df < 1000:
		return 1.980
	}
	return 1.960
}

// Fmt renders a float with the same precision rules Table.AddRow
// applies to float64 cells, for harnesses that compose cells like
// "±1.2" or "4.9..5.6" out of numbers.
func Fmt(v float64) string { return formatFloat(v) }
