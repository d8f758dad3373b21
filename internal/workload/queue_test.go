package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/stats"
)

// queueRig is one queue on a fresh simulation, fed by a fixed stream
// of one arrival per microsecond.
type queueRig struct {
	s       *sim.Sim
	q       *Queue
	tally   Tally
	genDone bool // Generate returned
}

func newQueueRig(classes int) *queueRig {
	r := &queueRig{s: sim.New()}
	r.tally.Sojourn = stats.NewHistogram()
	r.q = NewQueue(r.s, classes, &r.tally)
	return r
}

// generate spawns the generator proc: n arrivals, a microsecond apart,
// built by arrive.
func (r *queueRig) generate(t *testing.T, n int, arrive func(i int, now sim.Time) (Request, int)) {
	stream, err := NewStream(StreamConfig{RateOps: 1e6, Process: Fixed})
	if err != nil {
		t.Fatal(err)
	}
	r.s.Spawn("gen", func(g *sim.Proc) {
		r.q.Generate(g, rand.New(rand.NewSource(1)), stream, n, nil, arrive)
		r.genDone = true
	})
}

// TestQueuePopOrder: workers drain the classes round-robin, FIFO
// within a class, skipping empty classes.
func TestQueuePopOrder(t *testing.T) {
	r := newQueueRig(3)
	classOf := []int{0, 0, 1, 2, 2, 2, 0}
	r.generate(t, len(classOf), func(i int, _ sim.Time) (Request, int) {
		return Request{Key: uint64(i)}, classOf[i]
	})
	var got []uint64
	r.s.Spawn("worker", func(w *sim.Proc) {
		w.Sleep(100 * sim.Microsecond) // let every arrival queue first
		r.q.Serve(w, func(req Request) bool {
			got = append(got, req.Key)
			return true
		}, func(Request, sim.Time) {}, nil)
	})
	r.s.Run()
	if want := []uint64{0, 2, 3, 1, 4, 6, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("served keys %v, want %v", got, want)
	}
	if r.tally.Start != sim.Microsecond || r.tally.End != 100*sim.Microsecond ||
		r.tally.PeakBacklog != len(classOf) || r.tally.Sojourn.Count() != int64(len(classOf)) {
		t.Fatalf("tally %+v (sojourn count %d)", r.tally, r.tally.Sojourn.Count())
	}
}

// TestQueueShedNeitherQueuesNorSignals: an arrival whose class is -1
// counts toward the first-arrival instant but is neither queued nor
// signalled, so a waiting worker wakes only for the generator's end.
func TestQueueShedNeitherQueuesNorSignals(t *testing.T) {
	r := newQueueRig(1)
	r.generate(t, 50, func(int, sim.Time) (Request, int) { return Request{}, -1 })
	idles, served := 0, 0
	r.s.Spawn("worker", func(w *sim.Proc) {
		r.q.Serve(w, func(Request) bool { served++; return true },
			func(Request, sim.Time) {}, func() { idles++ })
	})
	r.s.Run()
	if idles != 2 || served != 0 {
		t.Fatalf("worker found the queue idle %d times and served %d; want 2 (start, end) and 0", idles, served)
	}
	if r.q.Backlog() != 0 || r.tally.PeakBacklog != 0 || r.tally.Start != sim.Microsecond {
		t.Fatalf("backlog %d, tally %+v", r.q.Backlog(), r.tally)
	}
}

// TestQueueAbortEndsEveryProc: Abort ends every worker at once,
// those waiting on an empty queue included, and the generator at its
// next arrival.
func TestQueueAbortEndsEveryProc(t *testing.T) {
	const n, workers = 1000, 3
	r := newQueueRig(1)
	arrivals := 0
	r.generate(t, n, func(int, sim.Time) (Request, int) {
		arrivals++
		return Request{}, 0
	})
	served := 0
	var ended []sim.Time
	for wi := 0; wi < workers; wi++ {
		r.s.Spawn("worker", func(w *sim.Proc) {
			r.q.Serve(w, func(Request) bool { return true }, func(Request, sim.Time) {
				if served++; served == 10 {
					r.q.Abort()
				}
			}, nil)
			ended = append(ended, w.Now())
		})
	}
	r.s.Run()
	abortAt := 10 * sim.Microsecond
	if want := []sim.Time{abortAt, abortAt, abortAt}; !r.genDone || !reflect.DeepEqual(ended, want) {
		t.Fatalf("after Abort at %v: generator returned %v, workers ended at %v; want %v", abortAt, r.genDone, ended, want)
	}
	if arrivals != 11 {
		t.Fatalf("generator offered %d arrivals; want the 10 served and the one it was sleeping toward", arrivals)
	}
}

// TestQueueDrainedClassReusesStorage: a class that drains reuses its
// storage, so after many arrivals its capacity follows the peak
// backlog, not the arrival count.
func TestQueueDrainedClassReusesStorage(t *testing.T) {
	const n = 2000
	r := newQueueRig(1)
	r.generate(t, n, func(i int, _ sim.Time) (Request, int) { return Request{Key: uint64(i)}, 0 })
	r.s.Spawn("worker", func(w *sim.Proc) {
		r.q.Serve(w, func(req Request) bool {
			if req.Key%100 == 99 {
				w.Sleep(10 * sim.Microsecond) // a slow request: the backlog builds, then drains
			}
			return true
		}, func(Request, sim.Time) {}, nil)
	})
	r.s.Run()
	k := r.tally.PeakBacklog
	if k < 2 || k > n/10 {
		t.Fatalf("peak backlog %d; the test needs a bounded backlog above 1", k)
	}
	if c := cap(r.q.classes[0].q); c > 2*k {
		t.Fatalf("class capacity %d after %d arrivals at peak backlog %d; want at most %d", c, n, k, 2*k)
	}
	if got := r.tally.Sojourn.Count(); got != n {
		t.Fatalf("served %d of %d", got, n)
	}
}

// TestQueueBackloggedClassBoundsStorage: a class that never drains
// (one arrival per microsecond, served at 1.34 µs each) drops its
// served head before it grows, so its capacity follows the peak
// backlog, not the arrival count, and FIFO order holds across it.
func TestQueueBackloggedClassBoundsStorage(t *testing.T) {
	const n = 2000
	r := newQueueRig(1)
	r.generate(t, n, func(i int, _ sim.Time) (Request, int) { return Request{Key: uint64(i)}, 0 })
	next := uint64(0)
	r.s.Spawn("worker", func(w *sim.Proc) {
		r.q.Serve(w, func(req Request) bool {
			if req.Key != next {
				t.Errorf("served key %d, want %d", req.Key, next)
			}
			next++
			w.Sleep(1340 * sim.Nanosecond)
			return true
		}, func(Request, sim.Time) {}, nil)
	})
	r.s.Run()
	k := r.tally.PeakBacklog
	if k < n/5 || k > n/3 {
		t.Fatalf("peak backlog %d; the test needs a backlog that builds for the whole run", k)
	}
	if c := cap(r.q.classes[0].q); c > 2*k {
		t.Fatalf("class capacity %d after %d arrivals at peak backlog %d; want at most %d", c, n, k, 2*k)
	}
	if next != n {
		t.Fatalf("served %d of %d", next, n)
	}
}

// TestQueueWholeCacheLines: setup allocates one queue per tenant or
// device side by side, and the drain writes each on every request, so
// a queue and each of its classes must occupy whole cache lines.
func TestQueueWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"Queue", unsafe.Sizeof(Queue{})},
		{"class", unsafe.Sizeof(class{})},
	} {
		if c.size%sim.CacheLine != 0 {
			t.Errorf("%s is %d B, not a whole number of %d B lines", c.name, c.size, sim.CacheLine)
		}
	}
}
