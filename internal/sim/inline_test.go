package sim

import (
	"fmt"
	"testing"
)

// sleepInlined runs p.Sleep(d) and reports whether it continued in
// place: the resume was counted, but the shard switched no coroutine.
// It reads only p's own shard, so it is safe inside a parallel drain.
func sleepInlined(p *Proc, d Time) bool {
	sh := &p.sim.shards[p.shard]
	resumed, switched := sh.resumed, sh.switched
	p.Sleep(d)
	if sh.resumed != resumed+1 {
		panic(fmt.Sprintf("sleep counted %d resumes, want 1", sh.resumed-resumed))
	}
	return sh.switched == switched
}

// TestInlineSleepAccountsInPlace checks that a sleep with nothing
// queued continues in place, moving the clock, seq and counters exactly
// as the posted resume would have.
func TestInlineSleepAccountsInPlace(t *testing.T) {
	s := New()
	var inlined bool
	var seq uint64
	var at Time
	s.Spawn("sleeper", func(p *Proc) {
		seq = s.shards[0].seq
		inlined = sleepInlined(p, 7)
		seq = s.shards[0].seq - seq
		at = p.Now()
	})
	s.Run()
	if !inlined {
		t.Fatal("sleep on an idle simulation switched coroutines")
	}
	if at != 7 || s.Now() != 7 || seq != 1 {
		t.Fatalf("after the sleep: proc at %v, sim at %v, %d seqs taken; want 7, 7, 1", at, s.Now(), seq)
	}
	if s.Processed() != 2 || s.Resumed() != 2 || s.Switched() != 1 {
		t.Fatalf("processed %d, resumed %d, switched %d; want 2, 2, 1 (the spawn switches)",
			s.Processed(), s.Resumed(), s.Switched())
	}
}

// TestInlineSleepWaitsForQueuedEvents checks the own-shard rule: an
// event queued at or before the wake time runs first, so the sleep
// must switch. At the same instant the queued event holds the older
// seq, and a Sleep(0) behind a non-empty lane is the same case.
func TestInlineSleepWaitsForQueuedEvents(t *testing.T) {
	for _, c := range []struct {
		name    string
		timer   Time // relative to the sleeper's clock
		sleep   Time
		inlines bool
	}{
		{"earlier event", 3, 5, false},
		{"event at the same instant", 5, 5, false},
		{"sleep(0) behind the lane", 0, 0, false},
		{"later event", 6, 5, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			var order []string
			var inlined bool
			s.Spawn("sleeper", func(p *Proc) {
				s.AtOn(0, p.Now()+c.timer, func() { order = append(order, "timer") })
				inlined = sleepInlined(p, c.sleep)
				order = append(order, "sleeper")
			})
			s.Run()
			if inlined != c.inlines {
				t.Fatalf("inlined = %v, want %v", inlined, c.inlines)
			}
			first := "timer"
			if c.inlines {
				first = "sleeper"
			}
			if order[0] != first {
				t.Fatalf("order %v, want %s first", order, first)
			}
		})
	}
}

// TestInlineSleepCrossShardTieBreak checks the coupled rule across
// shards under the canonical (at, shard, seq) key: another shard's
// head at the wake instant goes first if its index is lower, and
// after the sleeper if it is higher.
func TestInlineSleepCrossShardTieBreak(t *testing.T) {
	for _, c := range []struct {
		name           string
		sleeper, other int
		inlines        bool
	}{
		{"lower-index shard at the same instant", 1, 0, false},
		{"higher-index shard at the same instant", 0, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.AddShard()
			var order []string
			var inlined bool
			s.AtOn(c.other, 5, func() { order = append(order, "other") })
			s.SpawnOn(c.sleeper, "sleeper", func(p *Proc) {
				inlined = sleepInlined(p, 5)
				order = append(order, "sleeper")
			})
			s.Run()
			if inlined != c.inlines {
				t.Fatalf("inlined = %v, want %v", inlined, c.inlines)
			}
			first := "other"
			if c.inlines {
				first = "sleeper"
			}
			if order[0] != first {
				t.Fatalf("order %v, want %s first", order, first)
			}
		})
	}
	// An earlier head on any other shard wins regardless of index.
	s := New()
	s.AddShard()
	var inlined bool
	s.AtOn(1, 4, func() {})
	s.SpawnOn(0, "sleeper", func(p *Proc) { inlined = sleepInlined(p, 5) })
	s.Run()
	if inlined {
		t.Fatal("sleep inlined past an earlier event on a higher-index shard")
	}
}

// TestInlineSleepAfterArmParallel checks that a coupled proc that arms
// the parallel drain and then sleeps goes back through Run, which hands
// the rest to the drain; inside the drain only the own shard counts.
func TestInlineSleepAfterArmParallel(t *testing.T) {
	s := New()
	s.AddShard()
	var armed, drained bool
	// Shard 1's head is after the first wake and before the second: it
	// blocks neither the coupled rule for the first sleep nor, since the
	// drain ignores other shards, the second.
	s.AtOn(1, 7, func() {})
	s.SpawnOn(0, "armer", func(p *Proc) {
		s.ArmParallel(2)
		armed = sleepInlined(p, 5)
		drained = sleepInlined(p, 5)
	})
	s.Run()
	s.Shutdown()
	if armed {
		t.Fatal("sleep right after ArmParallel continued in place")
	}
	if !drained {
		t.Fatal("sleep on an otherwise idle shard in a parallel drain switched coroutines")
	}
}

// TestInlineSleepOffInReferenceModes checks that the noLane and
// noShard reference schedulers switch on every resume, so the
// equivalence tests compare the fast path against them.
func TestInlineSleepOffInReferenceModes(t *testing.T) {
	for _, mode := range []string{"noLane", "noShard"} {
		s := New()
		s.noLane = mode == "noLane"
		s.noShard = mode == "noShard"
		var inlined bool
		s.Spawn("sleeper", func(p *Proc) { inlined = sleepInlined(p, 5) })
		s.Run()
		if inlined || s.Switched() != s.Resumed() {
			t.Fatalf("%s: sleep continued in place (%d switches, %d resumes)", mode, s.Switched(), s.Resumed())
		}
	}
}
