package metrics

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestSeriesKeySortsLabels(t *testing.T) {
	a := seriesKey("io_ops_total", []string{"engine", "bypassd", "op", "read"})
	b := seriesKey("io_ops_total", []string{"op", "read", "engine", "bypassd"})
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := `io_ops_total{engine="bypassd",op="read"}`; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := seriesKey("plain", nil); got != "plain" {
		t.Fatalf("unlabeled key = %q", got)
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("a nil registry must hand out nil handles")
	}
	// Every method on a nil handle is a no-op, not a crash.
	c.Inc()
	c.Add(5)
	g.Add(-1)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

// TestActivate: the process-global registry is the one Activate
// returned until Deactivate removes it.
func TestActivate(t *testing.T) {
	r := Activate()
	if Active() != r {
		t.Fatal("Active must return the registry Activate installed")
	}
	Deactivate()
	if Active() != nil {
		t.Fatal("Active must be nil after Deactivate")
	}
}

func TestRegistryAccumulates(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops", "eng", "a").Add(3)
	r.Counter("ops", "eng", "a").Add(2) // same series, resolved twice
	r.Counter("ops", "eng", "b").Inc()
	r.Gauge("depth").Add(7)
	r.Histogram("lat").Observe(1000)
	r.Histogram("lat").Observe(3000)

	if got := r.Counter("ops", "eng", "a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	out := r.Render()
	for _, want := range []string{
		`ops{eng="a"} 5`,
		`ops{eng="b"} 1`,
		"depth 7",
		"lat count=2 mean=2000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	s := r.Snapshot()
	if s.Counters[`ops{eng="a"}`] != 5 || s.Gauges["depth"] != 7 {
		t.Fatalf("snapshot = %+v", s)
	}
	if h := s.Histograms["lat"]; h.Count != 2 || h.MeanNS != 2000 {
		t.Fatalf("snapshot histogram = %+v", h)
	}
}

// TestConcurrentCells drives one registry from many goroutines the way
// parallel sweep cells do — racing to resolve the same series and to
// update it — and checks the totals are exact. Run under -race this is
// the observability plane's thread-safety gate.
func TestConcurrentCells(t *testing.T) {
	r := NewRegistry()

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each "cell" resolves its handles at boot, like machine
			// constructors do, including one series shared by all.
			shared := r.Counter("shared_total")
			own := r.Counter("per_cell_total", "cell", string(rune('a'+w)))
			gauge := r.Gauge("depth")
			hist := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				shared.Inc()
				own.Inc()
				gauge.Add(1)
				gauge.Add(-1)
				hist.Observe(sim.Time(1000 + i))
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Fatalf("shared = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter("per_cell_total", "cell", string(rune('a'+w))).Value(); got != perWorker {
			t.Fatalf("cell %d = %d, want %d", w, got, perWorker)
		}
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	s := r.Snapshot()
	if s.Histograms["lat"].Count != workers*perWorker {
		t.Fatalf("hist count = %d", s.Histograms["lat"].Count)
	}
	// The integer sum makes the rendered mean independent of the
	// interleaving the workers happened to run in.
	if mean := s.Histograms["lat"].MeanNS; mean != 1000+(perWorker-1)/2 {
		t.Fatalf("hist mean = %d", mean)
	}
}

// TestSeriesCapFoldsOverflow engages the per-name cardinality cap the
// way a per-user label from the frontend's million-user population
// would: the first cap label-sets keep their own series, every later
// one folds into the name's "_overflow" bucket (adds aggregated, not
// lost), other metric names are unaffected, and two identical runs
// render byte-identically with the cap engaged.
func TestSeriesCapFoldsOverflow(t *testing.T) {
	const cap = DefaultSeriesCap
	const users = cap + 100 // < 26*26, the two-letter user names
	build := func() *Registry {
		r := NewRegistry()
		for u := 0; u < users; u++ {
			r.Counter("frontend_user_ops", "user", string(rune('A'+u%26))+string(rune('a'+u/26))).Add(int64(u + 1))
			r.Histogram("frontend_user_lat", "user", string(rune('A'+u%26))+string(rune('a'+u/26))).Observe(sim.Time(1000 * (u + 1)))
		}
		r.Counter("other_total").Add(int64(users))
		r.Gauge("depth", "dev", "0").Add(3)
		return r
	}
	r := build()

	s := r.Snapshot()
	var own, total int64
	overflow := int64(-1)
	for k, v := range s.Counters {
		if !strings.HasPrefix(k, "frontend_user_ops{") {
			continue
		}
		total += v
		if k == `frontend_user_ops{label="_overflow"}` {
			overflow = v
		} else {
			own++
		}
	}
	if own != cap {
		t.Fatalf("kept %d dedicated series, want exactly the cap %d", own, cap)
	}
	if overflow < 0 {
		t.Fatal("no _overflow bucket despite exceeding the cap")
	}
	if want := int64(users * (users + 1) / 2); total != want {
		t.Fatalf("adds lost under the cap: total %d, want %d", total, want)
	}
	if s.Histograms[`frontend_user_lat{label="_overflow"}`].Count != users-cap {
		t.Fatalf("histogram overflow count = %d, want %d",
			s.Histograms[`frontend_user_lat{label="_overflow"}`].Count, users-cap)
	}
	// Uncapped names keep resolving normally alongside a capped one.
	if s.Counters["other_total"] != users || s.Gauges[`depth{dev="0"}`] != 3 {
		t.Fatalf("unrelated series disturbed by the cap: %+v", s)
	}
	// Re-resolving a surviving label-set must still hit its own series,
	// not the overflow bucket.
	before := r.Counter("frontend_user_ops", "user", "Aa").Value()
	r.Counter("frontend_user_ops", "user", "Aa").Inc()
	if got := r.Counter("frontend_user_ops", "user", "Aa").Value(); got != before+1 {
		t.Fatalf("surviving series lost identity under the cap: %d -> %d", before, got)
	}

	// Determinism: identical runs render identically, and the render
	// stays sorted with the cap engaged.
	out := build().Render()
	if out != build().Render() {
		t.Fatal("render diverged between identical capped runs")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("capped render not sorted:\n%s", out)
	}
}

func TestRenderDeterministicAcrossInsertOrder(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(1)
	a.Counter("y", "k", "v").Add(2)
	a.Histogram("h").Observe(10)
	b.Histogram("h").Observe(10)
	b.Counter("y", "k", "v").Add(2)
	b.Counter("x").Add(1)
	if a.Render() != b.Render() {
		t.Fatalf("render depends on creation order:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}
