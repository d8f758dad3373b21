package userlib

import (
	"testing"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestSharedQueueSerializes(t *testing.T) {
	s := sim.New()
	m, err := kernel.NewMachineN(s, []device.Config{device.OptaneP5800X(1 << 30)}, nil, kernel.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	pr := m.NewProcess(ext4.Root)
	l := New(pr, Config{ShareQueues: true})
	var lats []sim.Time
	s.Spawn("main", func(p *sim.Proc) {
		fd0, _ := pr.Create(p, "/f", 0o666)
		_ = pr.Fallocate(p, fd0, 16<<20)
		_ = pr.Fsync(p, fd0)
		_ = pr.Close(p, fd0)
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(w *sim.Proc) {
				th, err := l.NewThread(w)
				if err != nil {
					t.Error(err)
					return
				}
				if th.lock == nil {
					t.Error("no lock on shared thread")
				}
				fd, err := l.Open(w, "/f", false)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 4096)
				st := w.Now()
				if _, err := th.Pread(w, fd, buf, 0); err != nil {
					t.Error(err)
				}
				lats = append(lats, w.Now()-st)
			})
		}
	})
	s.Run()
	if len(lats) != 4 {
		t.Fatalf("lats = %v", lats)
	}
	// With one shared queue+lock, concurrent reads must serialize:
	// at least one latency well above a solo op.
	max := lats[0]
	for _, l := range lats {
		if l > max {
			max = l
		}
	}
	if max < 9*sim.Microsecond {
		t.Fatalf("no serialization on shared queue: %v", lats)
	}
	s.Shutdown()
}
