package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

func TestAllEnginesAgreeOnData(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(5)).Read(data)

	sys.Sim.Spawn("main", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		// Seed through the kernel FS.
		fd, err := pr.Create(p, "/common", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := pr.Pwrite(p, fd, data, 0); err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)

		for _, e := range []Engine{EngineSync, EngineLibaio, EngineUring, EngineBypassD} {
			pr2 := sys.NewProcess(ext4.Root)
			io, err := sys.NewFileIO(p, pr2, e)
			if err != nil {
				t.Errorf("%s: %v", e, err)
				return
			}
			f, err := io.Open(p, "/common", false)
			if err != nil {
				t.Errorf("%s open: %v", e, err)
				return
			}
			got := make([]byte, len(data))
			n, err := io.Pread(p, f, got, 0)
			if err != nil || n != len(data) {
				t.Errorf("%s read: n=%d err=%v", e, n, err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Errorf("%s returned different data", e)
			}
			if err := io.Close(p, f); err != nil {
				t.Errorf("%s close: %v", e, err)
			}
		}
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}

func TestLatencyOrdering(t *testing.T) {
	// The paper's Fig. 6 ordering for 4 KiB reads:
	// spdk < bypassd < io_uring < sync <= libaio.
	lat := map[Engine]sim.Time{}
	for _, e := range AllEngines {
		e := e
		sys, err := New(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		sys.Sim.Spawn("main", func(p *sim.Proc) {
			pr := sys.NewProcess(ext4.Root)
			// Seed (engine-specific namespace for spdk).
			if e == EngineSPDK {
				d, err := sys.SPDK()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.CreateFile("/f", 1<<20); err != nil {
					t.Error(err)
					return
				}
			} else {
				fd, err := pr.Create(p, "/f", 0o644)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := pr.Pwrite(p, fd, make([]byte, 1<<20), 0); err != nil {
					t.Error(err)
					return
				}
				_ = pr.Fsync(p, fd)
				_ = pr.Close(p, fd)
			}
			io, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), e)
			if err != nil {
				t.Error(err)
				return
			}
			f, err := io.Open(p, "/f", false)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4096)
			// Warm up, then measure.
			_, _ = io.Pread(p, f, buf, 0)
			start := p.Now()
			const ops = 8
			for i := 0; i < ops; i++ {
				if _, err := io.Pread(p, f, buf, int64(i)*4096); err != nil {
					t.Errorf("%s: %v", e, err)
					return
				}
			}
			lat[e] = (p.Now() - start) / ops
		})
		sys.Sim.Run()
		sys.Sim.Shutdown()
	}
	t.Logf("4K read latencies: %v", lat)
	if !(lat[EngineSPDK] < lat[EngineBypassD] &&
		lat[EngineBypassD] < lat[EngineUring] &&
		lat[EngineUring] < lat[EngineSync] &&
		lat[EngineSync] <= lat[EngineLibaio]) {
		t.Fatalf("latency ordering violated: %v", lat)
	}
	// BypassD ≈ SPDK + ~550ns VBA translation (paper §6.3).
	gap := lat[EngineBypassD] - lat[EngineSPDK]
	if gap < 400 || gap > 800 {
		t.Fatalf("bypassd-spdk gap = %v, want ~550ns", gap)
	}
	// BypassD reads ≥ 30%% faster than sync (paper: 30.5%% average).
	if float64(lat[EngineBypassD]) > 0.72*float64(lat[EngineSync]) {
		t.Fatalf("bypassd %v not ≥28%% under sync %v", lat[EngineBypassD], lat[EngineSync])
	}
}

func TestSPDKCannotCoexistWithSharing(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SPDK(); err != nil {
		t.Fatal(err)
	}
	// Second system component claiming the device fails.
	if err := sys.M.Dev.Claim("another-process"); err == nil {
		t.Fatal("device claimed twice")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	sys, err := New(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	sys.Sim.Spawn("main", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, _ := pr.Create(p, "/persist", 0o644)
		_, _ = pr.Pwrite(p, fd, []byte("snapshot me"), 0)
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)
		st, err := sys.Snapshot(p)
		if err != nil {
			t.Error(err)
			return
		}
		// Boot a second system from the snapshot on a fresh sim.
		sys2, err := Boot(Config{Capacity: 1 << 30, Image: st})
		if err != nil {
			t.Error(err)
			return
		}
		s2 := sys2.Sim
		s2.Spawn("check", func(q *sim.Proc) {
			pr2 := sys2.NewProcess(ext4.Root)
			fd2, err := pr2.Open(q, "/persist", false)
			if err != nil {
				t.Errorf("snapshot lost file: %v", err)
				return
			}
			buf := make([]byte, 11)
			if _, err := pr2.Pread(q, fd2, buf, 0); err != nil {
				t.Error(err)
				return
			}
			if string(buf) != "snapshot me" {
				t.Errorf("snapshot data = %q", buf)
			}
		})
		s2.Run()
		s2.Shutdown()
	})
	sys.Sim.Run()
	sys.Sim.Shutdown()
}
