package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new sim clock = %v, want 0", s.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		at = p.Now()
	})
	s.Run()
	if at != 5*Microsecond {
		t.Fatalf("woke at %v, want 5µs", at)
	}
}

func TestZeroSleepRunsLaterEventsFirst(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	s.Run()
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	s := New()
	var fired []Time
	times := []Time{30, 10, 20, 10, 40}
	for _, d := range times {
		d := d
		s.After(d, func() { fired = append(fired, d) })
	}
	s.Run()
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	s := New()
	panicked := make(chan bool, 1)
	s.Spawn("bad", func(p *Proc) {
		defer func() {
			panicked <- recover() != nil
			panic(killed{}) // unwind cleanly
		}()
		p.Sleep(-1)
	})
	s.Run()
	if !<-panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestCondSignalWakesOneFIFO(t *testing.T) {
	s := New()
	c := s.NewCond()
	var woke []string
	for _, n := range []string{"w1", "w2", "w3"} {
		n := n
		s.Spawn(n, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, n)
		})
	}
	s.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Signal()
	})
	s.Run()
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("woke = %v, want [w1 w2]", woke)
	}
	if c.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", c.Waiters())
	}
	s.Shutdown()
}

func TestCondBroadcastWakesAll(t *testing.T) {
	s := New()
	c := s.NewCond()
	n := 0
	for i := 0; i < 5; i++ {
		s.Spawn("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	s.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		c.Broadcast()
	})
	s.Run()
	if n != 5 {
		t.Fatalf("woke %d waiters, want 5", n)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := s.NewResource("dev", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Use(p, 10)
			done = append(done, p.Now())
		})
	}
	s.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done times = %v, want %v", done, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	s := New()
	r := s.NewResource("dev", 2)
	var done []Time
	for i := 0; i < 4; i++ {
		s.Spawn("u", func(p *Proc) {
			r.Use(p, 10)
			done = append(done, p.Now())
		})
	}
	s.Run()
	// two at a time: finish at 10,10,20,20
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done times = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOHandoff(t *testing.T) {
	s := New()
	r := s.NewResource("lock", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.SpawnAt(Time(i), "u", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(100)
			r.Release()
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	s := New()
	r := s.NewResource("x", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on free resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on busy resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("release of idle resource did not panic")
		}
	}()
	s := New()
	r := s.NewResource("x", 1)
	r.Release()
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.After(10, func() { fired++ })
	s.After(20, func() { fired++ })
	s.After(30, func() { fired++ })
	n := s.RunUntil(20)
	if n != 2 || fired != 2 {
		t.Fatalf("RunUntil(20) processed %d events (fired=%d), want 2", n, fired)
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %v, want 20", s.Now())
	}
	s.Run()
	if fired != 3 {
		t.Fatalf("after Run fired = %d, want 3", fired)
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	s := New()
	c := s.NewCond()
	for i := 0; i < 8; i++ {
		s.Spawn("idle", func(p *Proc) { c.Wait(p) })
	}
	s.Run()
	if s.Live() != 8 {
		t.Fatalf("live = %d, want 8 parked", s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", s.Live())
	}
}

// TestShutdownUnwindsProcParkedInDefer parks procs inside deferred
// functions while Shutdown unwinds them: each park must unwind again
// instead of stranding the proc, and the Sleep's resume never runs.
func TestShutdownUnwindsProcParkedInDefer(t *testing.T) {
	s := New()
	c := s.NewCond()
	woke := 0
	for i := 0; i < 3; i++ {
		s.Spawn("deferred", func(p *Proc) {
			defer func() {
				p.Sleep(5)
				woke++
			}()
			c.Wait(p)
		})
	}
	s.Run()
	s.Shutdown()
	if s.Live() != 0 || woke != 0 {
		t.Fatalf("after shutdown live = %d, woke = %d; want 0, 0", s.Live(), woke)
	}
}

// TestProcPanicReachesRunCaller pins that a panic inside a proc
// surfaces from Run on the caller's goroutine, where it can be
// recovered, rather than killing the process from elsewhere.
func TestProcPanicReachesRunCaller(t *testing.T) {
	s := New()
	s.Spawn("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run recovered %v, want the proc's panic", got)
	}
	s.Shutdown()
	if s.Live() != 0 {
		t.Fatalf("live after shutdown = %d, want 0", s.Live())
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New()
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		p.sim.Spawn("child", func(q *Proc) {
			q.Sleep(5)
			childRan = true
		})
		p.Sleep(20)
	})
	s.Run()
	if !childRan {
		t.Fatal("child proc did not run")
	}
}

func TestCPUNoDilationUnderSubscription(t *testing.T) {
	s := New()
	c := s.NewCPUSet(4)
	var end Time
	s.Spawn("w", func(p *Proc) {
		c.Compute(p, 100)
		end = p.Now()
	})
	s.Run()
	if end != 100 {
		t.Fatalf("compute took %v, want 100ns", end)
	}
}

func TestCPUDilationWhenOversubscribed(t *testing.T) {
	s := New()
	c := s.NewCPUSet(2)
	ends := make([]Time, 0, 4)
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			c.Compute(p, 100)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	// The last proc to enter sees demand=4 on 2 cores: 2x dilation.
	max := ends[0]
	for _, e := range ends {
		if e > max {
			max = e
		}
	}
	if max < 150 {
		t.Fatalf("no dilation observed: max end %v", max)
	}
}

func TestCPUBusyWaitPenaltyOnlyWhenOversubscribed(t *testing.T) {
	s := New()
	c := s.NewCPUSet(2)
	cond := s.NewCond()
	var woke Time
	s.Spawn("waiter", func(p *Proc) {
		c.BusyWait(p, cond)
		woke = p.Now()
	})
	s.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		cond.Broadcast()
	})
	s.Run()
	if woke != 10 {
		t.Fatalf("undersubscribed busy wait woke at %v, want 10", woke)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := New()
		rng := rand.New(rand.NewSource(seed))
		r := s.NewResource("dev", 3)
		var out []Time
		for i := 0; i < 50; i++ {
			d := Time(rng.Intn(100) + 1)
			s.SpawnAt(Time(rng.Intn(50)), "w", func(p *Proc) {
				r.Use(p, d)
				out = append(out, p.Now())
			})
		}
		s.Run()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of jobs on a capacity-1 resource, total busy
// time equals the sum of service times (work conservation) and no two
// jobs overlap.
func TestResourceWorkConservationProperty(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) == 0 || len(durs) > 64 {
			return true
		}
		s := New()
		r := s.NewResource("dev", 1)
		type span struct{ start, end Time }
		var spans []span
		var total Time
		for _, d := range durs {
			d := Time(d%50) + 1
			total += d
			s.Spawn("j", func(p *Proc) {
				r.Acquire(p)
				st := p.Now()
				p.Sleep(d)
				r.Release()
				spans = append(spans, span{st, p.Now()})
			})
		}
		s.Run()
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		var busy Time
		for i, sp := range spans {
			busy += sp.end - sp.start
			if i > 0 && sp.start < spans[i-1].end {
				return false // overlap on capacity-1 resource
			}
		}
		return busy == total && s.Now() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{4020, "4.02µs"},
		{1500000, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
