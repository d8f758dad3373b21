package kernel

import (
	"errors"
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

func TestContainerIsolation(t *testing.T) {
	s, m := newMachine(t)
	s.Spawn("main", func(p *sim.Proc) {
		host := m.NewProcess(ext4.Root)
		mkFile(t, p, host, "/host-secret", []byte("host data"))

		c1, err := m.NewContainerProcess(p, ext4.Root, "/containers/c1")
		if err != nil {
			t.Error(err)
			return
		}
		c2, err := m.NewContainerProcess(p, ext4.Root, "/containers/c2")
		if err != nil {
			t.Error(err)
			return
		}

		// Each container sees its own namespace.
		mkFile(t, p, c1, "/data", []byte("container one"))
		mkFile(t, p, c2, "/data", []byte("container two"))
		buf := make([]byte, 13)
		fd, err := c1.Open(p, "/data", false)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c1.Pread(p, fd, buf, 0); err != nil {
			t.Error(err)
			return
		}
		if string(buf) != "container one" {
			t.Errorf("c1 read %q", buf)
		}
		_ = c1.Close(p, fd)

		// The host sees them at their real paths.
		in, err := m.FS.Lookup(p, "/containers/c2/data", ext4.Root)
		if err != nil || in.Size != 13 {
			t.Errorf("host view of c2 file: %v", err)
		}

		// A container cannot reach host files...
		if _, err := c1.Open(p, "/host-secret", false); !errors.Is(err, ext4.ErrNotExist) {
			t.Errorf("container escaped via direct path: %v", err)
		}
		// ...not even with dot-dot tricks: every path resolves under
		// the container root.
		for path, want := range map[string]string{
			"/../host-secret":      "/containers/c1/host-secret",
			"/a/../../host-secret": "/containers/c1/host-secret",
			"/../..":               "/containers/c1/",
			"//a/./b/":             "/containers/c1/a/b",
			"/":                    "/containers/c1/",
		} {
			if got, err := c1.resolve(path); err != nil || got != want {
				t.Errorf("resolve(%q) = %q, %v; want %q", path, got, err, want)
			}
			if _, err := c1.Open(p, path, false); err == nil {
				t.Errorf("container opened %q", path)
			}
		}
	})
	s.Run()
	s.Shutdown()
}

func TestContainerBypassDWorksUnmodified(t *testing.T) {
	// Paper §5.2: BypassD works readily with containers because the
	// kernel gates open()/fmap() — the direct path then needs no
	// extra checks.
	s, m := newMachine(t)
	s.Spawn("main", func(p *sim.Proc) {
		c, err := m.NewContainerProcess(p, ext4.Root, "/containers/app")
		if err != nil {
			t.Error(err)
			return
		}
		mkFile(t, p, c, "/db", make([]byte, 8192))
		fd, base, err := c.OpenBypass(p, "/db", true)
		if err != nil || base == 0 {
			t.Errorf("containerized OpenBypass: base=%d err=%v", base, err)
			return
		}
		_ = fd
		// And the mapping resolves to the file inside the container
		// root.
		in, err := m.FS.Lookup(p, "/containers/app/db", ext4.Root)
		if err != nil {
			t.Error(err)
			return
		}
		if in.BypassOpens != 1 {
			t.Errorf("BypassOpens = %d", in.BypassOpens)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestContainerRootValidation(t *testing.T) {
	s, m := newMachine(t)
	s.Spawn("main", func(p *sim.Proc) {
		if _, err := m.NewContainerProcess(p, ext4.Root, "/"); err == nil {
			t.Error("container rooted at / accepted")
		}
		if _, err := m.NewContainerProcess(p, ext4.Root, "relative"); err == nil {
			t.Error("relative container root accepted")
		}
	})
	s.Run()
	s.Shutdown()
}
