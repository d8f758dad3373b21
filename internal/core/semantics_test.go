package core

import (
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

// TestTimestampSemantics checks §4.4: kernel-interface writes update
// mtime immediately (in memory), while BypassD-interface writes defer
// the update to close/fsync, as POSIX permits for mapped files.
func TestTimestampSemantics(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, _ := pr.Create(p, "/ts", 0o666)
		_ = pr.Fallocate(p, fd, 1<<20)
		_ = pr.Fsync(p, fd)
		_ = pr.Close(p, fd)
		in, _ := sys.M.FS.Lookup(p, "/ts", ext4.Root)

		// Kernel path: mtime moves with the write.
		kfd, _ := pr.Open(p, "/ts", true)
		before := in.Mtime
		p.Sleep(time10ms())
		if _, err := pr.Pwrite(p, kfd, make([]byte, 4096), 0); err != nil {
			t.Error(err)
			return
		}
		if in.Mtime == before {
			t.Error("kernel write did not update mtime")
		}
		_ = pr.Close(p, kfd)

		// BypassD path: mtime deferred until fsync.
		lib := sys.Lib(sys.NewProcess(ext4.Root))
		th, _ := lib.NewThread(p)
		bfd, err := lib.Open(p, "/ts", true)
		if err != nil {
			t.Error(err)
			return
		}
		before = in.Mtime
		p.Sleep(time10ms())
		if _, err := th.Pwrite(p, bfd, make([]byte, 4096), 0); err != nil {
			t.Error(err)
			return
		}
		if in.Mtime != before {
			t.Error("direct write updated mtime immediately (should defer)")
		}
		if err := th.Fsync(p, bfd); err != nil {
			t.Error(err)
			return
		}
		if in.Mtime == before {
			t.Error("fsync did not apply the deferred mtime")
		}
	})
	sys.Sim.Run()
}

func time10ms() sim.Time { return 10 * sim.Millisecond }

// TestShortReadsAtEOF checks read clamping across engines.
func TestShortReadsAtEOF(t *testing.T) {
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()
	sys.Sim.Spawn("m", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, _ := pr.Create(p, "/small", 0o666)
		if _, err := pr.Pwrite(p, fd, make([]byte, 5000), 0); err != nil {
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
			f, _ := io.Open(p, "/small", false)
			buf := make([]byte, 4096)
			// Straddling EOF: short read.
			n, err := io.Pread(p, f, buf, 4096)
			if err != nil || n != 5000-4096 {
				t.Errorf("%s straddling read: n=%d err=%v", e, n, err)
			}
			// Past EOF: zero.
			n, err = io.Pread(p, f, buf, 8192)
			if err != nil || n != 0 {
				t.Errorf("%s past-eof read: n=%d err=%v", e, n, err)
			}
		}
	})
	sys.Sim.Run()
}
