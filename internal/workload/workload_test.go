package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sim"
)

// The refactor contract: Interarrival must reproduce the historical
// internal/tenants draw stream bit for bit — same rng consumption,
// same rounding — for both processes, across seeds and rates. The
// reference below is the pre-refactor tenants implementation,
// verbatim.
func TestInterarrivalMatchesHistoricalTenantsFormula(t *testing.T) {
	reference := func(rng *rand.Rand, fixed bool, rateOps float64) sim.Time {
		period := 1e9 / rateOps
		if fixed {
			return sim.Time(period)
		}
		return sim.Time(rng.ExpFloat64() * period)
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, rate := range []float64{1, 999.5, 20_000, 1.49e6} {
			for _, proc := range []Process{Poisson, "", Fixed} {
				a := rand.New(rand.NewSource(seed))
				b := rand.New(rand.NewSource(seed))
				for i := 0; i < 200; i++ {
					got := Interarrival(a, proc, rate)
					want := reference(b, proc == Fixed, rate)
					if got != want {
						t.Fatalf("seed %d rate %g proc %q draw %d: got %v want %v",
							seed, rate, proc, i, got, want)
					}
				}
			}
		}
	}
}

// Zipf shape: with theta 0.99 over n keys, rank 0 must be by far the
// most popular, frequency must fall monotonically over the first few
// ranks, and the top ranks must hold a large share of all draws —
// the head-heavy profile the YCSB generator is defined by.
func TestZipfDistributionShape(t *testing.T) {
	const n = 10_000
	const draws = 200_000
	z := NewZipf(n, DefaultZipfTheta)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		if r >= n {
			t.Fatalf("rank %d outside [0, %d)", r, n)
		}
		counts[r]++
	}
	if counts[0] < counts[1] || counts[1] < counts[4] || counts[4] < counts[100] {
		t.Fatalf("head not monotone: c0=%d c1=%d c4=%d c100=%d",
			counts[0], counts[1], counts[4], counts[100])
	}
	// Theory: P(rank 0) = 1/zetan ~ 9.5% at n=10k, theta .99.
	p0 := float64(counts[0]) / draws
	if p0 < 0.06 || p0 > 0.14 {
		t.Fatalf("rank-0 mass %.3f outside the theta=0.99 envelope", p0)
	}
	top100 := 0
	for _, c := range counts[:100] {
		top100 += c
	}
	if frac := float64(top100) / draws; frac < 0.45 {
		t.Fatalf("top-100 ranks hold only %.2f of the mass; want head-heavy skew", frac)
	}
}

// Determinism: the same seed must replay the same rank sequence run
// after run (the property every table's byte-identity rests on), and
// the scrambled variant must stay inside [0, n).
func TestZipfDeterministicAcrossRuns(t *testing.T) {
	sample := func() []uint64 {
		z := NewZipf(5000, DefaultZipfTheta)
		rng := rand.New(rand.NewSource(42))
		out := make([]uint64, 2000)
		for i := range out {
			if i%2 == 0 {
				out[i] = z.Next(rng)
			} else {
				out[i] = z.NextScrambled(rng)
			}
			if out[i] >= 5000 {
				t.Fatalf("draw %d: rank %d out of range", i, out[i])
			}
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// Scramble must be the YCSB FNV-1a fold: stable values, and a
// bijection-grade spread (no collisions over a large sequential
// range would be too strong; distinctness over a modest one is the
// regression guard).
func TestScrambleSpread(t *testing.T) {
	if Scramble(0) == Scramble(1) {
		t.Fatal("scramble collides immediately")
	}
	seen := make(map[uint64]bool, 100_000)
	for i := uint64(0); i < 100_000; i++ {
		h := Scramble(i)
		if seen[h] {
			t.Fatalf("scramble collision at %d", i)
		}
		seen[h] = true
	}
}

// Shaped streams must (a) be deterministic for a seed, (b) hit their
// configured mean rate within a few percent when averaged over many
// periods, and (c) actually vary: the diurnal peak-phase rate must
// exceed the trough, and a bursty stream's gap distribution must be
// burstier (higher CV) than steady Poisson.
func TestStreamShapes(t *testing.T) {
	run := func(cfg StreamConfig, n int, seed int64) []sim.Time {
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var now sim.Time
		out := make([]sim.Time, n)
		for i := range out {
			gap := s.Next(rng, now)
			now += gap
			out[i] = now
		}
		return out
	}
	const rate = 100_000
	for _, shape := range []Shape{Steady, Diurnal, Bursty} {
		cfg := StreamConfig{RateOps: rate, Shape: shape}
		a := run(cfg, 20_000, 9)
		b := run(cfg, 20_000, 9)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d diverged between identical runs", shape, i)
			}
		}
		span := a[len(a)-1] - a[0]
		got := float64(len(a)-1) / span.Seconds()
		if got < rate*0.9 || got > rate*1.1 {
			t.Fatalf("%s: achieved mean rate %.0f, want ~%d", shape, got, rate)
		}
	}

	// Burstiness: coefficient of variation of gaps. Poisson CV = 1;
	// the two-state burst process must sit clearly above it.
	cv := func(arr []sim.Time) float64 {
		var sum, sq float64
		for i := 1; i < len(arr); i++ {
			g := float64(arr[i] - arr[i-1])
			sum += g
			sq += g * g
		}
		n := float64(len(arr) - 1)
		mean := sum / n
		return math.Sqrt(sq/n-mean*mean) / mean
	}
	steady := run(StreamConfig{RateOps: rate}, 30_000, 3)
	bursty := run(StreamConfig{RateOps: rate, Shape: Bursty}, 30_000, 3)
	if cvS, cvB := cv(steady), cv(bursty); cvB < cvS*1.2 {
		t.Fatalf("bursty CV %.2f not above steady CV %.2f", cvB, cvS)
	}

	// Diurnal modulation: compare arrival counts in the peak quarter
	// of the period against the trough quarter. Integrating
	// 1 + 0.5*sin over each quarter gives an expected ratio of
	// (pi/2 + 0.5) / (pi/2 - 0.5) = (1+1/pi)/(1-1/pi) ≈ 1.93. The 30,000
	// arrivals span about three 100ms periods, some 9,900 and 5,100
	// per quarter, so sampling noise and the run's ragged end move the
	// ratio by about 0.1 (seed 5 measures 2.02); a 1.5 floor fails only
	// when the modulation is weakened.
	arr := run(StreamConfig{RateOps: rate, Shape: Diurnal}, 30_000, 5)
	var peakN, troughN int
	for _, at := range arr {
		switch (at % diurnalPeriod) * 4 / diurnalPeriod {
		case 0: // rising/peak quadrant of sin
			peakN++
		case 2: // falling/trough quadrant
			troughN++
		}
	}
	if float64(peakN) < float64(troughN)*1.5 {
		t.Fatalf("diurnal peak quadrant %d arrivals vs trough %d: modulation too weak", peakN, troughN)
	}
}

func TestStreamValidation(t *testing.T) {
	for _, cfg := range []StreamConfig{
		{RateOps: 0},
		{RateOps: -5},
		{RateOps: 10, Shape: "square"},
	} {
		if _, err := NewStream(cfg); err == nil {
			t.Fatalf("NewStream(%+v) accepted invalid config", cfg)
		}
	}
	if !ValidProcess("") || !ValidProcess(Poisson) || ValidProcess("x") {
		t.Fatal("ValidProcess broken")
	}
	if !ValidShape("") || !ValidShape(Bursty) || ValidShape("x") {
		t.Fatal("ValidShape broken")
	}
}

// The zeta memo must be invisible: two samplers built concurrently
// over a key space nobody has asked for yet (a cache miss on both
// sides, which the race detector checks) get the bit-identical zetan
// of a fresh sum, and later samplers read it from the cache.
func TestZipfZetaMemoConcurrent(t *testing.T) {
	const n, theta = 3<<14 + 7, 0.97
	want := math.Float64bits(zetaSum(n, theta))
	var zs [2]*Zipf
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zs[i] = NewZipf(n, theta)
		}()
	}
	wg.Wait()
	for i, z := range zs {
		if got := math.Float64bits(z.zetan); got != want {
			t.Fatalf("sampler %d: zetan bits %x, want %x", i, got, want)
		}
	}
	if _, ok := zetaCache.Load(zetaKey{n, theta}); !ok {
		t.Fatal("zeta(n, theta) was not memoized")
	}
	if got := math.Float64bits(NewZipf(n, theta).zetan); got != want {
		t.Fatalf("cached zetan bits %x, want %x", got, want)
	}
}
