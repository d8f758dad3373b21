// Package workload is the open-loop traffic engine both traffic
// planes run on — internal/tenants (tens of tenants, each a full
// process) and internal/frontend (millions of simulated users over a
// bounded worker pool) — plus the pieces it draws from: seeded arrival
// streams, bounded Zipf popularity and time-varying load shapes, all
// on the virtual clock.
//
// The engine is a Queue of round-robin FIFO classes with one arrival
// loop (Queue.Generate) and one worker loop (Queue.Serve). A plane
// supplies only what differs, as hooks: how an arrival becomes a
// request and which class it joins, or whether it is shed; how a
// worker serves one; what it counts per served request; and what it
// does when it finds the queue idle. Tenants use one class and admit
// everything; the frontend uses 32 fairness classes with token-bucket
// admission at the door and CoDel drops at dequeue.
//
// Determinism: every draw comes from a caller-owned *rand.Rand seeded
// from the scenario and consumed only by the generator proc that owns
// it, so a fixed seed replays every arrival instant at any host
// parallelism. The Zipf sampler is the YCSB generator (Gray et al.'s
// algorithm) that internal/ycsb has always used, shared so key
// popularity skew in the service tier and in the KV benchmarks is the
// same distribution.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"

	"repro/internal/sim"
)

// Process selects an arrival process.
type Process string

// Supported arrival processes.
const (
	// Poisson draws exponential interarrival gaps — the open-system
	// model whose tail exposes queueing delay.
	Poisson Process = "poisson"
	// Fixed spaces arrivals exactly 1/rate apart.
	Fixed Process = "fixed"
)

// DefaultZipfTheta is the YCSB skew parameter.
const DefaultZipfTheta = 0.99

// Zipf samples ranks in [0, n) with Zipfian skew: rank 0 is the most
// popular. The algorithm and constants are the standard YCSB
// generator; internal/ycsb delegates here. Each Next consumes exactly
// one Float64 draw from the caller's rng.
type Zipf struct {
	n     uint64
	theta float64
	zetan float64
	zeta2 float64
	alpha float64
	eta   float64
}

// zetaKey keys the zeta cache.
type zetaKey struct {
	n  uint64
	th float64
}

// zetaCache memoizes zeta across samplers: every fleet boot and every
// device's generator asks for the same H over the same key space, an
// O(n) math.Pow sum. The function is pure, so a cached value is
// bit-identical to a recomputed one; two generators racing on a miss
// both compute it and store the same float.
var zetaCache sync.Map // zetaKey -> float64

// zeta returns the generalized harmonic number H_{n,th}.
func zeta(n uint64, th float64) float64 {
	k := zetaKey{n, th}
	if v, ok := zetaCache.Load(k); ok {
		return v.(float64)
	}
	sum := zetaSum(n, th)
	zetaCache.Store(k, sum)
	return sum
}

// zetaSum computes H_{n,th} = sum over i in [1, n] of 1/i^th.
func zetaSum(n uint64, th float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), th)
	}
	return sum
}

// NewZipf builds a bounded Zipf sampler over [0, n) with skew theta
// (DefaultZipfTheta for YCSB's 0.99). Setup is O(n) — the zeta sum —
// so build once per stream, not per draw.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: empty zipf key space")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// Next samples a rank in [0, z.n).
func (z *Zipf) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Scramble spreads sequential values over the 64-bit space (FNV-1a
// over the 8 little-endian bytes), the YCSB trick that keeps hot Zipf
// ranks from clustering in one region of the key space. Deterministic
// and stateless.
func Scramble(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// NextScrambled samples a Zipf rank and scrambles it into [0, n): hot
// keys spread over the key space instead of clustering at 0.
func (z *Zipf) NextScrambled(rng *rand.Rand) uint64 {
	return Scramble(z.Next(rng)) % z.n
}

// Shape selects a load shape — how the offered rate varies over the
// virtual clock.
type Shape string

// Supported load shapes.
const (
	// Steady offers a constant rate.
	Steady Shape = "steady"
	// Diurnal modulates the rate sinusoidally around its mean —
	// rate(t) = mean * (1 + 0.5*sin(2*pi*t/100ms)) — the day/night
	// swing of a user-facing service, compressed onto the virtual
	// clock.
	Diurnal Shape = "diurnal"
	// Bursty alternates calm and burst phases (a two-state modulated
	// Poisson process): calm offers the base rate for a mean 2ms,
	// bursts multiply it by 8 for a mean 200µs, both exponentially
	// distributed.
	Bursty Shape = "bursty"
)

// StreamConfig describes one arrival stream.
type StreamConfig struct {
	RateOps float64 // mean offered rate, requests/sec
	Shape   Shape   // default Steady
	Process Process // default Poisson; Fixed ignores Shape
}

// The load shapes' fixed parameters.
const (
	diurnalAmp    float64  = 0.5                   // modulation depth
	diurnalPeriod sim.Time = 100 * sim.Millisecond // one "day" of virtual time
	burstFactor   float64  = 8                     // burst rate multiplier
	burstLen      sim.Time = 200 * sim.Microsecond // mean burst length
	burstOff      sim.Time = 2 * sim.Millisecond   // mean calm gap between bursts
)

// Stream generates one seeded arrival stream with a (possibly
// time-varying) rate on the virtual clock. Non-steady shapes are
// sampled by thinning a Poisson process at the shape's peak rate, so
// every accepted arrival instant is a pure function of the rng
// stream and the config — independent of service order and host
// scheduling. A Stream must only be advanced by the single generator
// proc that owns it.
type Stream struct {
	cfg  StreamConfig
	peak float64 // thinning envelope rate

	// Bursty phase state, advanced lazily as the clock passes it.
	inBurst  bool
	phaseEnd sim.Time
}

// NewStream validates cfg and returns the stream.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.RateOps <= 0 {
		return nil, fmt.Errorf("workload: rate must be positive, got %g", cfg.RateOps)
	}
	switch cfg.Shape {
	case "", Steady, Diurnal, Bursty:
	default:
		return nil, fmt.Errorf("workload: unknown load shape %q", cfg.Shape)
	}
	switch cfg.Process {
	case "", Poisson, Fixed:
	default:
		return nil, fmt.Errorf("workload: unknown arrival process %q", cfg.Process)
	}
	s := &Stream{cfg: cfg, peak: cfg.RateOps}
	switch cfg.Shape {
	case Diurnal:
		s.peak = cfg.RateOps * (1 + diurnalAmp)
	case Bursty:
		// The mean rate is RateOps; solve for the calm-phase base so
		// that time-averaging calm and burst phases lands back on it:
		// mean = base * (off + factor*len) / (off + len).
		s.peak = s.burstBase() * burstFactor
	}
	return s, nil
}

// burstBase is the calm-phase rate of a bursty stream.
func (s *Stream) burstBase() float64 {
	off, ln := float64(burstOff), float64(burstLen)
	return s.cfg.RateOps * (off + ln) / (off + burstFactor*ln)
}

// rateAt evaluates the instantaneous offered rate at virtual time t,
// advancing bursty phase state up to t.
func (s *Stream) rateAt(rng *rand.Rand, t sim.Time) float64 {
	switch s.cfg.Shape {
	case Diurnal:
		phase := 2 * math.Pi * float64(t%diurnalPeriod) / float64(diurnalPeriod)
		return s.cfg.RateOps * (1 + diurnalAmp*math.Sin(phase))
	case Bursty:
		for t >= s.phaseEnd {
			var mean sim.Time
			if s.inBurst {
				mean = burstOff
			} else {
				mean = burstLen
			}
			s.inBurst = !s.inBurst
			gap := sim.Time(rng.ExpFloat64() * float64(mean))
			if gap < 1 {
				gap = 1
			}
			s.phaseEnd += gap
		}
		if s.inBurst {
			return s.burstBase() * burstFactor
		}
		return s.burstBase()
	default:
		return s.cfg.RateOps
	}
}

// Next returns the gap from now to the stream's next arrival. Fixed
// streams space arrivals exactly 1/rate apart and draw nothing; steady
// streams draw one Poisson interarrival; shaped streams thin a Poisson
// envelope at the peak rate.
func (s *Stream) Next(rng *rand.Rand, now sim.Time) sim.Time {
	if s.cfg.Process == Fixed {
		return sim.Time(1e9 / s.cfg.RateOps)
	}
	if s.cfg.Shape == "" || s.cfg.Shape == Steady {
		return poisson(rng, s.cfg.RateOps)
	}
	t := now
	for {
		t += poisson(rng, s.peak)
		if rng.Float64()*s.peak <= s.rateAt(rng, t) {
			return t - now
		}
	}
}

// poisson draws an exponential interarrival gap at rateOps
// requests/sec from exactly one ExpFloat64 draw.
func poisson(rng *rand.Rand, rateOps float64) sim.Time {
	return sim.Time(rng.ExpFloat64() * (1e9 / rateOps))
}

// Load reads a JSON scenario file into a T: the config format of
// bypassd-bench's -tenants and -frontend flags (see EXPERIMENTS.md).
func Load[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
