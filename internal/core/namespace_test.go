package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestConcurrentNamespaceOps runs processes that create, then unlink
// and rename, files in one shared directory at the same time.
// Directory updates read the entries, yield on I/O, and write them
// back, so without per-file-system serialization the last writer wins
// and entries vanish. Every create, unlink and rename must land, and
// the file system must check clean.
func TestConcurrentNamespaceOps(t *testing.T) {
	const procs, files = 4, 40
	sys, err := New(1 << 28)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Sim.Shutdown()

	var runErr error
	// phase runs op(pr, w, i) for every file i of every proc w, the
	// procs interleaved, and returns the sorted root directory.
	phase := func(op func(p *sim.Proc, pr *kernel.Process, w, i int) error) []string {
		for w := 0; w < procs; w++ {
			sys.Sim.Spawn(fmt.Sprintf("ns%d", w), func(p *sim.Proc) {
				pr := sys.NewProcess(ext4.Root)
				for i := 0; i < files && runErr == nil; i++ {
					if err := op(p, pr, w, i); err != nil {
						runErr = fmt.Errorf("proc %d file %d: %w", w, i, err)
					}
				}
			})
		}
		sys.Sim.Run()
		var names []string
		sys.Sim.Spawn("ls", func(p *sim.Proc) {
			root, err := sys.M.FS.Lookup(p, "/", ext4.Root)
			if err != nil {
				t.Error(err)
				return
			}
			entries, err := sys.M.FS.ReadDir(p, root)
			if err != nil {
				t.Error(err)
				return
			}
			for _, e := range entries {
				names = append(names, e.Name)
			}
			if err := sys.M.FS.Check(p); err != nil {
				t.Error(err)
			}
		})
		sys.Sim.Run()
		if runErr != nil {
			t.Fatal(runErr)
		}
		sort.Strings(names)
		return names
	}
	expect := func(what string, got []string, name func(w, i int) string, keep func(i int) bool) {
		t.Helper()
		var want []string
		for w := 0; w < procs; w++ {
			for i := 0; i < files; i++ {
				if keep(i) {
					want = append(want, name(w, i))
				}
			}
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after %s the directory holds %d entries, want %d:\n got %v\nwant %v",
				what, len(got), len(want), got, want)
		}
	}
	created := func(w, i int) string { return fmt.Sprintf("w%d-f%d", w, i) }
	renamed := func(w, i int) string { return fmt.Sprintf("w%d-r%d", w, i) }

	got := phase(func(p *sim.Proc, pr *kernel.Process, w, i int) error {
		fd, err := pr.Create(p, "/"+created(w, i), 0o644)
		if err != nil {
			return err
		}
		return pr.Close(p, fd)
	})
	expect("creates", got, created, func(int) bool { return true })

	got = phase(func(p *sim.Proc, pr *kernel.Process, w, i int) error {
		if i%2 == 0 {
			return pr.Unlink(p, "/"+created(w, i))
		}
		return pr.Rename(p, "/"+created(w, i), "/"+renamed(w, i))
	})
	expect("unlinks and renames", got, renamed, func(i int) bool { return i%2 == 1 })
}
