package nvme

import (
	"testing"

	"repro/internal/sim"
)

func newQP(depth int) *QueuePair {
	return NewQueuePair(sim.New(), 1, 42, depth)
}

func TestSubmitPopOrder(t *testing.T) {
	q := newQP(4)
	for i := 0; i < 3; i++ {
		e := SQE{Opcode: OpFlush, CID: uint16(i)}
		if err := q.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if q.SQLen() != 3 {
		t.Fatalf("sqlen = %d, want 3", q.SQLen())
	}
	for i := 0; i < 3; i++ {
		e, ok := q.PopSQE()
		if !ok || e.CID != uint16(i) {
			t.Fatalf("pop %d: got cid %d ok=%v", i, e.CID, ok)
		}
	}
	if _, ok := q.PopSQE(); ok {
		t.Fatal("pop on empty ring succeeded")
	}
}

func TestRingWraparound(t *testing.T) {
	q := newQP(2)
	for round := 0; round < 5; round++ {
		if err := q.Submit(SQE{Opcode: OpFlush, CID: uint16(round)}); err != nil {
			t.Fatal(err)
		}
		e, ok := q.PopSQE()
		if !ok || e.CID != uint16(round) {
			t.Fatalf("round %d: cid %d", round, e.CID)
		}
	}
}

func TestSubmitFullRing(t *testing.T) {
	q := newQP(2)
	_ = q.Submit(SQE{Opcode: OpFlush})
	_ = q.Submit(SQE{Opcode: OpFlush})
	if err := q.Submit(SQE{Opcode: OpFlush}); err == nil {
		t.Fatal("submit to full ring succeeded")
	}
}

func TestSubmitBufferValidation(t *testing.T) {
	q := newQP(4)
	e := SQE{Opcode: OpRead, Sectors: 2, Buf: make([]byte, SectorSize)} // too short
	if err := q.Submit(e); err == nil {
		t.Fatal("short buffer accepted")
	}
	e.Buf = make([]byte, 2*SectorSize)
	if err := q.Submit(e); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionFlow(t *testing.T) {
	q := newQP(4)
	q.PostCQE(CQE{CID: 7, Status: StatusSuccess})
	q.PostCQE(CQE{CID: 8, Status: StatusAccessDenied})
	c, ok := q.PopCQE()
	if !ok || c.CID != 7 || !c.Status.OK() {
		t.Fatalf("cqe 1 = %+v ok=%v", c, ok)
	}
	c, ok = q.PopCQE()
	if !ok || c.CID != 8 || c.Status.OK() {
		t.Fatalf("cqe 2 = %+v ok=%v", c, ok)
	}
	if _, ok := q.PopCQE(); ok {
		t.Fatal("pop on empty cq succeeded")
	}
}

func TestDoorbellSignalsDevice(t *testing.T) {
	s := sim.New()
	q := NewQueuePair(s, 1, 0, 8)
	var got uint16
	s.Spawn("device", func(p *sim.Proc) {
		for {
			e, ok := q.PopSQE()
			if ok {
				got = e.CID
				return
			}
			q.Doorbell.Wait(p)
		}
	})
	s.Spawn("app", func(p *sim.Proc) {
		p.Sleep(100)
		if err := q.Submit(SQE{Opcode: OpFlush, CID: 55}); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if got != 55 {
		t.Fatalf("device consumed cid %d, want 55", got)
	}
}

// Exec stamps each command with the pair's next ID, so callers sharing
// a pair never reuse one, and returns the command's completion once
// the device posts it.
func TestExecStampsCIDAndWaits(t *testing.T) {
	s := sim.New()
	q := NewQueuePair(s, 1, 0, 8)
	s.Spawn("device", func(p *sim.Proc) {
		for {
			e, ok := q.PopSQE()
			if !ok {
				q.Doorbell.Wait(p)
				continue
			}
			p.Sleep(1000)
			q.PostCQE(CQE{CID: e.CID, Status: StatusSuccess})
		}
	})
	s.Spawn("app", func(p *sim.Proc) {
		cpu := s.NewCPUSet(1)
		for want := uint16(1); want <= 3; want++ {
			c, err := q.Exec(p, cpu, SQE{Opcode: OpFlush})
			if err != nil {
				t.Error(err)
				return
			}
			if c.CID != want || !c.Status.OK() {
				t.Errorf("exec %d: completion %+v", want, c)
			}
		}
		if p.Now() != 3000 {
			t.Errorf("three commands finished at %v, want 3000", p.Now())
		}
	})
	s.Run()
	s.Shutdown()
}

func TestCloseRejectsSubmit(t *testing.T) {
	q := newQP(4)
	q.Close()
	if !q.Closed() {
		t.Fatal("not closed")
	}
	if err := q.Submit(SQE{Opcode: OpFlush}); err == nil {
		t.Fatal("submit on closed queue succeeded")
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusSuccess.String() != "success" || StatusAccessDenied.String() != "access-denied" {
		t.Fatal("status string mismatch")
	}
	if !StatusSuccess.OK() || StatusTranslationFault.OK() {
		t.Fatal("OK() mismatch")
	}
	if OpRead.String() != "read" || OpWriteZeroes.String() != "write-zeroes" {
		t.Fatal("opcode string mismatch")
	}
}

// TestRingPoolReuseNoAliasing pins the ring pool's safety contract:
// a released pair's arrays may be recycled into a new pair, but the
// new pair must present fresh queue state, and entries left over from
// the previous tenant must never surface as commands.
func TestRingPoolReuseNoAliasing(t *testing.T) {
	q1 := newQP(8)
	for i := 0; i < 5; i++ {
		if err := q1.Submit(SQE{Opcode: OpRead, CID: uint16(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	q1.PopSQE() // leave the ring dirty mid-stream
	q1.ReleaseRings()

	q2 := newQP(8) // recycles q1's arrays when the pool hands them back
	if q2.SQLen() != 0 || q2.CQLen() != 0 {
		t.Fatalf("recycled pair not empty: sq=%d cq=%d", q2.SQLen(), q2.CQLen())
	}
	if _, ok := q2.PopSQE(); ok {
		t.Fatal("recycled pair popped a stale command")
	}
	// Fresh submissions must round-trip their own payloads.
	for i := 0; i < 8; i++ {
		if err := q2.Submit(SQE{Opcode: OpWrite, CID: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		e, ok := q2.PopSQE()
		if !ok || e.CID != uint16(i) || e.Opcode != OpWrite {
			t.Fatalf("pop %d: cid=%d op=%v ok=%v — stale entry surfaced", i, e.CID, e.Opcode, ok)
		}
	}
	// Double release must be a no-op, not a double Put.
	q2.ReleaseRings()
	q2.ReleaseRings()
}
