package sim

import (
	"fmt"
	"strings"
	"testing"
)

// waiterScenario parks six parties on one Cond and then six on one
// single-unit Resource; callback[i] makes party i a callback
// (WaitFunc / AcquireFunc) instead of a proc (Wait / Acquire). Every
// party registers from its own proc at time i, so registration costs
// the same events either way. The log records each wakeup with the
// virtual time it ran at, and each wake call with the last seq it
// consumed: for the log to match an all-proc run, a callback must wake
// in the same FIFO slot, at the same instant, with the same seq.
func waiterScenario(callback []bool) (log []string, events, resumes uint64) {
	s := New()
	cond := s.NewCond()
	res := s.NewResourceOn(0, "pool", 1)
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	seq := func() uint64 { return s.shards[0].seq }

	for i, cb := range callback {
		i, cb := i, cb
		s.Spawn(fmt.Sprintf("cond%d", i), func(p *Proc) {
			p.Sleep(Time(i))
			if cb {
				cond.WaitFunc(0, func() { logf("%d: cond party %d woke", s.Now(), i) })
				return
			}
			cond.Wait(p)
			logf("%d: cond party %d woke", p.Now(), i)
		})
		s.Spawn(fmt.Sprintf("res%d", i), func(p *Proc) {
			p.Sleep(Time(20 + i))
			if !cb {
				res.Acquire(p)
				logf("%d: res party %d granted", p.Now(), i)
				p.Sleep(2)
				res.Release()
				return
			}
			granted := func() {
				logf("%d: res party %d granted", s.Now(), i)
				s.AtOn(0, s.Now()+2, res.Release)
			}
			if res.AcquireFunc(0, granted) {
				granted()
			}
		})
	}
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(10)
		cond.Signal()
		logf("%d: signal, seq %d", p.Now(), seq())
		s.AtOn(0, p.Now(), func() { logf("%d: marker", s.Now()) })
		cond.Signal()
		cond.Signal()
		logf("%d: signal x2, seq %d", p.Now(), seq())
		p.Sleep(1)
		cond.Broadcast()
		logf("%d: broadcast, seq %d", p.Now(), seq())
		s.AtOn(0, p.Now(), func() { logf("%d: marker", s.Now()) })
	})
	s.Run()
	s.Shutdown()
	return log, s.Processed(), s.Resumed()
}

// TestCallbackWaitersKeepProcOrder mixes proc and callback waiters on
// one Cond and one Resource and checks that they wake exactly as an
// all-proc reference does: same FIFO order, same (at, seq), same event
// count, with one proc resume fewer for each wakeup a callback takes.
func TestCallbackWaitersKeepProcOrder(t *testing.T) {
	ref, refEvents, refResumes := waiterScenario(make([]bool, 6))
	for _, pattern := range []string{"cpcpcp", "pcpcpc", "ccpppc", "cccccc"} {
		// A callback party skips three proc resumes: its cond wakeup,
		// its grant and the end of its hold — two for party 0, which
		// finds the unit free and is never parked on the resource.
		callback := make([]bool, len(pattern))
		skipped := uint64(0)
		for i, c := range pattern {
			callback[i] = c == 'c'
			if callback[i] {
				skipped += 3
				if i == 0 {
					skipped--
				}
			}
		}
		got, events, resumes := waiterScenario(callback)
		if strings.Join(got, "\n") != strings.Join(ref, "\n") {
			t.Fatalf("pattern %s diverges from the all-proc run:\n%s\nwant:\n%s", pattern, strings.Join(got, "\n"), strings.Join(ref, "\n"))
		}
		if events != refEvents {
			t.Errorf("pattern %s: %d events, all-proc run %d", pattern, events, refEvents)
		}
		if want := refResumes - skipped; resumes != want {
			t.Errorf("pattern %s: %d proc resumes, want %d (all-proc run %d)", pattern, resumes, want, refResumes)
		}
	}
	if len(ref) != 6+6+5 {
		t.Fatalf("all-proc run logged %d lines, want 17:\n%s", len(ref), strings.Join(ref, "\n"))
	}
}

// TestAcquireFuncForeignShardPanics pins the first checked piece of
// shard confinement: a callback may queue only on a resource resident
// on its own shard, and a foreign AcquireFunc panics with the same
// message whether or not a unit is free, in or out of a drain.
func TestAcquireFuncForeignShardPanics(t *testing.T) {
	s := New()
	s.AddShard()
	res := s.NewResourceOn(1, "dev1-channels", 1)
	const want = "sim: AcquireFunc on shard 0 for resource dev1-channels resident on shard 1"
	for _, free := range []bool{true, false} {
		if !free && !res.AcquireFunc(1, func() {}) {
			t.Fatal("resident AcquireFunc on an idle resource did not claim the unit")
		}
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("free=%v: recovered %v, want panic %q", free, r, want)
				}
			}()
			res.AcquireFunc(0, func() { t.Error("foreign callback ran") })
		}()
	}
	if res.inUse != 1 || len(res.waiters) != 0 {
		t.Fatalf("a refused AcquireFunc changed the resource: inUse %d, %d waiters", res.inUse, len(res.waiters))
	}
	s.Shutdown()
}
