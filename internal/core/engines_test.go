package core

import (
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

func TestUnknownEngine(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		if _, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), Engine("nonsense")); err == nil {
			t.Error("unknown engine accepted")
		}
	})
	sys.Sim.Run()
}

func TestEngineNamesStable(t *testing.T) {
	// The engine identifiers are part of the public API (used by the
	// CLI flags and the harness tables).
	want := map[Engine]string{
		EngineSync:    "sync",
		EngineLibaio:  "libaio",
		EngineUring:   "io_uring",
		EngineSPDK:    "spdk",
		EngineBypassD: "bypassd",
	}
	for e, s := range want {
		if string(e) != s {
			t.Errorf("engine %q renamed", s)
		}
	}
	if len(AllEngines) != 5 {
		t.Fatalf("engine list changed: %v", AllEngines)
	}
}

func TestEngineReportsItsKind(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		for _, e := range []Engine{EngineSync, EngineLibaio, EngineUring, EngineBypassD} {
			io, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), e)
			if err != nil {
				t.Errorf("%s: %v", e, err)
				continue
			}
			if io.Engine() != e {
				t.Errorf("engine %s reports %s", e, io.Engine())
			}
		}
	})
	sys.Sim.Run()
}

func TestSPDKOpenUnregisteredFails(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		io, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), EngineSPDK)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := io.Open(p, "/nope", false); err == nil {
			t.Error("spdk opened an unregistered region")
		}
		if _, err := io.Pread(p, 42, make([]byte, 512), 0); err == nil {
			t.Error("spdk read on bad fd succeeded")
		}
	})
	sys.Sim.Run()
}

func TestWriteOnReadOnlyFD(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/ro", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)
		for _, e := range []Engine{EngineSync, EngineBypassD} {
			io, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), e)
			if err != nil {
				t.Error(err)
				return
			}
			f, err := io.Open(p, "/ro", false) // read-only
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := io.Pwrite(p, f, make([]byte, 512), 0); err == nil {
				t.Errorf("%s wrote through a read-only descriptor", e)
			}
		}
	})
	sys.Sim.Run()
}

func TestFsyncAllEngines(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, _ := pr.Create(p, "/f", 0o666)
		_ = pr.Fallocate(p, fd, 1<<20)
		_ = pr.Close(p, fd)
		for _, e := range []Engine{EngineSync, EngineLibaio, EngineUring, EngineBypassD} {
			io, err := sys.NewFileIO(p, sys.NewProcess(ext4.Root), e)
			if err != nil {
				t.Errorf("%s: %v", e, err)
				continue
			}
			f, err := io.Open(p, "/f", true)
			if err != nil {
				t.Errorf("%s open: %v", e, err)
				continue
			}
			if _, err := io.Pwrite(p, f, make([]byte, 4096), 0); err != nil {
				t.Errorf("%s write: %v", e, err)
				continue
			}
			if err := io.Fsync(p, f); err != nil {
				t.Errorf("%s fsync: %v", e, err)
			}
			if err := io.Close(p, f); err != nil {
				t.Errorf("%s close: %v", e, err)
			}
		}
	})
	sys.Sim.Run()
}
