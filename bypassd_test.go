package bypassd

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// TestPublicAPIQuickstart exercises the facade the way the README's
// quick start does.
func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, direct userspace I/O")
	var roundTrip Time
	Run(sys, "quickstart", func(p *Proc) {
		pr := sys.NewProcess(RootCred)
		fd, err := pr.Create(p, "/data", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if err := pr.Fallocate(p, fd, 4096); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)

		io, err := sys.NewFileIO(p, sys.NewProcess(RootCred), EngineBypassD)
		if err != nil {
			t.Error(err)
			return
		}
		f, err := io.Open(p, "/data", true)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		copy(buf, payload)
		if _, err := io.Pwrite(p, f, buf, 0); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 4096)
		start := p.Now()
		if _, err := io.Pread(p, f, got, 0); err != nil {
			t.Error(err)
			return
		}
		roundTrip = p.Now() - start
		if !bytes.Equal(got[:len(payload)], payload) {
			t.Error("payload mismatch")
		}
	})
	if roundTrip < 4*sim.Microsecond || roundTrip > 6*sim.Microsecond {
		t.Fatalf("4K direct read = %v, want ~5µs", roundTrip)
	}
	sys.Sim.Shutdown()
}

func TestSnapshotAPI(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	var img *Store
	Run(sys, "build", func(p *Proc) {
		pr := sys.NewProcess(RootCred)
		fd, _ := pr.Create(p, "/kept", 0o644)
		_, _ = pr.Pwrite(p, fd, []byte("kept"), 0)
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)
		snap, err := sys.Snapshot(p)
		if err != nil {
			t.Error(err)
			return
		}
		img = snap
	})
	sys.Sim.Shutdown()
	if img == nil {
		t.Fatal("no snapshot")
	}

	sys2, err := NewFromImage(1<<30, img)
	if err != nil {
		t.Fatal(err)
	}
	Run(sys2, "check", func(p *Proc) {
		pr := sys2.NewProcess(RootCred)
		fd, err := pr.Open(p, "/kept", false)
		if err != nil {
			t.Errorf("file lost across snapshot: %v", err)
			return
		}
		buf := make([]byte, 4)
		_, _ = pr.Pread(p, fd, buf, 0)
		if string(buf) != "kept" {
			t.Errorf("data = %q", buf)
		}
	})
	sys2.Sim.Shutdown()
}
