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
