package ext4

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// Crash-recovery invariant tests: a one-shot injected crash at each
// journal stage aborts a commit mid-flight; remounting the surviving
// storage image must replay (or discard) the interrupted transaction
// so that fsck passes, everything committed before the crash is
// intact, and the interrupted transaction is applied atomically —
// fully visible when the commit record reached the medium, fully
// absent when it did not.

// crashSites maps each crash point to whether the interrupted
// transaction must be visible after recovery.
var crashSites = []struct {
	site      string
	committed bool
}{
	{faults.SiteCrashPreJournal, false},
	{faults.SiteCrashPreCommit, false},
	{faults.SiteCrashPostCommit, true},
	{faults.SiteCrashPostCheckpoint, true},
}

func TestJournalCrashRecovery(t *testing.T) {
	for _, cs := range crashSites {
		cs := cs
		t.Run(cs.site, func(t *testing.T) {
			fs, st := newFS(t)

			// Baseline transaction, fully committed before any fault.
			base, err := fs.Create(nil, "/base", 0o644, Root)
			if err != nil {
				t.Fatal(err)
			}
			baseData := make([]byte, 30000)
			rand.New(rand.NewSource(9)).Read(baseData)
			if _, err := fs.WriteAt(nil, base, 0, baseData); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Mkdir(nil, "/dir", 0o755, Root); err != nil {
				t.Fatal(err)
			}
			if err := fs.Commit(nil); err != nil {
				t.Fatal(err)
			}

			// Arm a one-shot crash at this stage, then attempt a second
			// transaction.
			fs.SetObservers(faults.NewInjector(1, []faults.Rule{{Site: cs.site, Count: 1}}), nil, nil)
			nf, err := fs.Create(nil, "/dir/new", 0o644, Root)
			if err != nil {
				t.Fatal(err)
			}
			newData := make([]byte, 12000)
			rand.New(rand.NewSource(10)).Read(newData)
			if _, err := fs.WriteAt(nil, nf, 0, newData); err != nil {
				t.Fatal(err)
			}
			if err := fs.Commit(nil); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Commit err = %v, want ErrCrashed", err)
			}

			// Power loss: abandon the in-memory state and remount from
			// whatever reached the medium.
			fs2, err := Mount(&Direct{St: st}, 1, nil)
			if err != nil {
				t.Fatalf("remount after %s: %v", cs.site, err)
			}
			if err := fs2.Check(nil); err != nil {
				t.Fatalf("fsck after %s: %v", cs.site, err)
			}

			// The committed baseline must survive every crash point.
			b2, err := fs2.Lookup(nil, "/base", Root)
			if err != nil {
				t.Fatalf("baseline lost after %s: %v", cs.site, err)
			}
			got := make([]byte, len(baseData))
			if _, err := fs2.ReadAt(nil, b2, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, baseData) {
				t.Fatalf("baseline content diverged after %s", cs.site)
			}

			// The interrupted transaction is atomic: all or nothing,
			// depending on whether the commit record hit the medium.
			n2, err := fs2.Lookup(nil, "/dir/new", Root)
			if cs.committed {
				if err != nil {
					t.Fatalf("committed transaction lost after %s: %v", cs.site, err)
				}
				if n2.Size != int64(len(newData)) {
					t.Fatalf("replayed size = %d, want %d", n2.Size, len(newData))
				}
				got := make([]byte, len(newData))
				if _, err := fs2.ReadAt(nil, n2, 0, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, newData) {
					t.Fatalf("replayed content diverged after %s", cs.site)
				}
			} else if !errors.Is(err, ErrNotExist) {
				t.Fatalf("uncommitted transaction leaked after %s: inode=%v err=%v", cs.site, n2, err)
			}

			// The recovered file system must stay fully usable: another
			// mutation + commit + fsck round.
			after, err := fs2.Create(nil, "/after", 0o644, Root)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs2.WriteAt(nil, after, 0, baseData[:5000]); err != nil {
				t.Fatal(err)
			}
			if err := fs2.Commit(nil); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			if err := fs2.Check(nil); err != nil {
				t.Fatalf("fsck after post-recovery commit: %v", err)
			}
		})
	}
}

// TestJournalCrashEveryCommitStage drives a longer workload where each
// successive commit crashes at a rotating stage, remounting after
// every crash; committed history must never regress.
func TestJournalCrashEveryCommitStage(t *testing.T) {
	fs, st := newFS(t)
	content := map[string][]byte{}
	rng := rand.New(rand.NewSource(11))

	for round := 0; round < 8; round++ {
		cs := crashSites[round%len(crashSites)]
		path := fmt.Sprintf("/f%d", round)
		data := make([]byte, 4096+rng.Intn(20000))
		rng.Read(data)

		in, err := fs.Create(nil, path, 0o644, Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(nil, in, 0, data); err != nil {
			t.Fatal(err)
		}
		fs.SetObservers(faults.NewInjector(int64(round), []faults.Rule{{Site: cs.site, Count: 1}}), nil, nil)
		if err := fs.Commit(nil); !errors.Is(err, ErrCrashed) {
			t.Fatalf("round %d: Commit err = %v, want ErrCrashed", round, err)
		}
		if cs.committed {
			content[path] = data
		}

		if fs, err = Mount(&Direct{St: st}, 1, nil); err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		if err := fs.Check(nil); err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		for p, want := range content {
			in, err := fs.Lookup(nil, p, Root)
			if err != nil {
				t.Fatalf("round %d: committed %s lost: %v", round, p, err)
			}
			got := make([]byte, len(want))
			if _, err := fs.ReadAt(nil, in, 0, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: committed %s diverged", round, p)
			}
		}
	}
}
