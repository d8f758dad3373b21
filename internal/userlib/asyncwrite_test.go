package userlib

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func TestAsyncWriteThroughputAndDrain(t *testing.T) {
	e := newEnv(t)
	const writes = 64
	var asyncElapsed, syncElapsed sim.Time
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, writes*4096))
		fd, err := e.l.Open(p, "/f", true)
		if err != nil {
			t.Error(err)
			return
		}
		buf := bytes.Repeat([]byte{0x5a}, 4096)

		// Synchronous baseline.
		th, _ := e.l.NewThread(p)
		start := p.Now()
		for i := 0; i < writes; i++ {
			if _, err := th.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				t.Error(err)
				return
			}
		}
		syncElapsed = p.Now() - start

		// Non-blocking writes at depth 16.
		w, err := e.l.NewAsyncWriter(p, 16, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		start = p.Now()
		for i := 0; i < writes; i++ {
			if _, err := w.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				t.Error(err)
				return
			}
		}
		if err := w.Drain(p); err != nil {
			t.Error(err)
			return
		}
		asyncElapsed = p.Now() - start
		if w.Submitted != writes || w.Completed != writes || w.Inflight() != 0 {
			t.Errorf("accounting: submitted=%d completed=%d inflight=%d",
				w.Submitted, w.Completed, w.Inflight())
		}
	})
	e.s.Run()
	// Depth-16 pipelining over 6 device channels must clearly beat
	// one-at-a-time synchronous writes.
	if asyncElapsed*2 > syncElapsed {
		t.Fatalf("async writes not overlapped: async=%v sync=%v", asyncElapsed, syncElapsed)
	}
	e.s.Shutdown()
}

func TestAsyncWriteReadConsistency(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 64*4096))
		fd, _ := e.l.Open(p, "/f", true)
		w, err := e.l.NewAsyncWriter(p, 32, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		th, _ := e.l.NewThread(p)
		buf := make([]byte, 4096)
		// Issue a burst of async writes, then immediately read one of
		// the written ranges WITHOUT draining: the read must return
		// the new data (§5.1 consistency requirement).
		for i := 0; i < 16; i++ {
			data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
			if _, err := w.Pwrite(p, fd, data, int64(i)*4096); err != nil {
				t.Error(err)
				return
			}
		}
		if n, err := th.Pread(p, fd, buf, 5*4096); err != nil || n != 4096 {
			t.Errorf("read during async burst: n=%d err=%v", n, err)
			return
		}
		for i, b := range buf {
			if b != 6 {
				t.Errorf("stale read at byte %d: %#x (read overtook buffered write)", i, b)
				return
			}
		}
		if err := w.Drain(p); err != nil {
			t.Error(err)
		}
		// Non-overlapping reads proceed without waiting for writes.
		if _, err := th.Pread(p, fd, buf, 40*4096); err != nil {
			t.Error(err)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestAsyncWriteFallbacks(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 8192))
		fd, _ := e.l.Open(p, "/f", true)
		w, err := e.l.NewAsyncWriter(p, 4, 8192)
		if err != nil {
			t.Error(err)
			return
		}
		// Append: routed synchronously through the kernel.
		if n, err := w.Pwrite(p, fd, make([]byte, 4096), 8192); err != nil || n != 4096 {
			t.Errorf("append via async writer: n=%d err=%v", n, err)
			return
		}
		if w.Submitted != 0 {
			t.Errorf("append counted as async (submitted=%d)", w.Submitted)
		}
		// Unaligned: synchronous RMW.
		if n, err := w.Pwrite(p, fd, []byte("odd"), 100); err != nil || n != 3 {
			t.Errorf("unaligned via async writer: n=%d err=%v", n, err)
			return
		}
		// Oversized for the slot: explicit error.
		if _, err := w.Pwrite(p, fd, make([]byte, 12288), 0); err == nil {
			t.Error("oversized async write accepted")
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

// Fallback writes share one synchronous thread: a writer that fell
// back on every call used to create a queue pair (and pin a DMA
// buffer) per write. Queue IDs count the device's queues, so the
// thread created afterwards shows how many the fallbacks made.
func TestAsyncWriteFallbacksReuseOneQueue(t *testing.T) {
	e := newEnv(t)
	const fallbacks = 10
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 8192))
		fd, _ := e.l.Open(p, "/f", true)
		w, err := e.l.NewAsyncWriter(p, 4, 4096)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < fallbacks; i++ {
			// Unaligned in-file writes take the direct RMW path.
			if _, err := w.Pwrite(p, fd, []byte("odd"), int64(100+i)); err != nil {
				t.Error(err)
				return
			}
		}
		th, err := e.l.NewThread(p)
		if err != nil {
			t.Error(err)
			return
		}
		if made := th.q.ID - w.q.ID - 1; made > 1 {
			t.Errorf("%d fallback writes created %d queue pairs, want at most 1", fallbacks, made)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}

func TestAsyncWriteBackpressure(t *testing.T) {
	e := newEnv(t)
	e.s.Spawn("app", func(p *sim.Proc) {
		e.seed(t, p, "/f", make([]byte, 256*4096))
		fd, _ := e.l.Open(p, "/f", true)
		w, err := e.l.NewAsyncWriter(p, 2, 4096) // tiny depth
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for i := 0; i < 32; i++ {
			if _, err := w.Pwrite(p, fd, buf, int64(i)*4096); err != nil {
				t.Error(err)
				return
			}
			if w.Inflight() > 2 {
				t.Errorf("inflight %d exceeds depth 2", w.Inflight())
				return
			}
		}
		if err := w.Drain(p); err != nil {
			t.Error(err)
		}
	})
	e.s.Run()
	e.s.Shutdown()
}
