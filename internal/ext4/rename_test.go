package ext4

import (
	"bytes"
	"errors"
	"testing"
)

func TestRenameSameDir(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/a", 0o644, Root)
	if _, err := fs.WriteAt(nil, in, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/a", "/b", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Lookup(nil, "/a", Root); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old name still resolves: %v", err)
	}
	got, err := fs.Lookup(nil, "/b", Root)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ino != in.Ino {
		t.Fatalf("inode changed across rename: %d -> %d", in.Ino, got.Ino)
	}
	buf := make([]byte, 7)
	if _, err := fs.ReadAt(nil, got, 0, buf); err != nil || string(buf) != "payload" {
		t.Fatalf("content lost: %q %v", buf, err)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRenameAcrossDirsAndReplace(t *testing.T) {
	fs, st := newFS(t)
	if _, err := fs.Mkdir(nil, "/d1", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(nil, "/d2", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Create(nil, "/d1/f", 0o644, Root)
	if _, err := fs.WriteAt(nil, src, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	victim, _ := fs.Create(nil, "/d2/f", 0o644, Root)
	if _, err := fs.WriteAt(nil, victim, 0, bytes.Repeat([]byte{9}, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/d1/f", "/d2/f", Root); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Lookup(nil, "/d2/f", Root)
	if err != nil || got.Ino != src.Ino {
		t.Fatalf("replaced rename broken: %v", err)
	}
	if _, err := fs.Lookup(nil, "/d1/f", Root); !errors.Is(err, ErrNotExist) {
		t.Fatal("source entry survived")
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err) // victim's blocks must be accounted (freed)
	}
	// Remount durability.
	fs2, err := Mount(&Direct{St: st}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Lookup(nil, "/d2/f", Root); err != nil {
		t.Fatal(err)
	}
}

func TestRenameOntoItselfAndErrors(t *testing.T) {
	fs, _ := newFS(t)
	if _, err := fs.Create(nil, "/x", 0o644, Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/x", "/x", Root); err != nil {
		t.Fatalf("self-rename: %v", err)
	}
	if err := fs.Rename(nil, "/missing", "/y", Root); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename of missing = %v", err)
	}
	if _, err := fs.Mkdir(nil, "/dir", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/x", "/dir", Root); !errors.Is(err, ErrIsDir) {
		t.Fatalf("rename over dir = %v", err)
	}
	bob := Cred{UID: 9, GID: 9}
	if err := fs.Rename(nil, "/x", "/z", bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("unprivileged rename = %v", err)
	}
}

func TestRelinkMovesBlocksWithoutCopy(t *testing.T) {
	fs, _ := newFS(t)
	dst, _ := fs.Create(nil, "/target", 0o644, Root)
	if _, err := fs.WriteAt(nil, dst, 0, bytes.Repeat([]byte{1}, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Create(nil, "/staging", 0o644, Root)
	staged := bytes.Repeat([]byte{2}, 3*BlockSize)
	if _, err := fs.WriteAt(nil, src, 0, staged); err != nil {
		t.Fatal(err)
	}
	srcBlocks := src.BlockMap()

	counted := &CrashBIO{Inner: fs.bio, FailAfter: 1 << 30}
	fs.bio = counted
	if err := fs.Relink(nil, src, dst); err != nil {
		t.Fatal(err)
	}
	// Relink is metadata-only: no data blocks rewritten.
	if counted.writes != 0 {
		t.Fatalf("relink moved data: %d block writes", counted.writes)
	}
	if dst.Size != 5*BlockSize || src.Size != 0 {
		t.Fatalf("sizes after relink: dst=%d src=%d", dst.Size, src.Size)
	}
	// The grafted blocks are the staging file's old blocks.
	m := dst.BlockMap()
	for i, b := range srcBlocks {
		if m[2+i] != b {
			t.Fatalf("block %d not grafted: %d != %d", i, m[2+i], b)
		}
	}
	got := make([]byte, 5*BlockSize)
	if _, err := fs.ReadAt(nil, dst, 0, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*BlockSize; i++ {
		if got[i] != 1 {
			t.Fatalf("target prefix corrupted at %d", i)
		}
	}
	if !bytes.Equal(got[2*BlockSize:], staged) {
		t.Fatal("staged data not visible in target")
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelinkRequiresAlignedTarget(t *testing.T) {
	fs, _ := newFS(t)
	dst, _ := fs.Create(nil, "/t", 0o644, Root)
	if _, err := fs.WriteAt(nil, dst, 0, []byte("odd")); err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Create(nil, "/s", 0o644, Root)
	if _, err := fs.WriteAt(nil, src, 0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Relink(nil, src, dst); err == nil {
		t.Fatal("relink onto unaligned target accepted")
	}
}

func TestRelinkUpdatesFileTables(t *testing.T) {
	fs, _ := newFS(t)
	dst, _ := fs.Create(nil, "/t", 0o644, Root)
	if _, err := fs.WriteAt(nil, dst, 0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Create(nil, "/s", 0o644, Root)
	if _, err := fs.WriteAt(nil, src, 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	dft, _ := fs.FileTable(dst)
	sft, _ := fs.FileTable(src)
	if err := fs.Relink(nil, src, dst); err != nil {
		t.Fatal(err)
	}
	if dft.Pages() != 3 {
		t.Fatalf("target file table pages = %d, want 3", dft.Pages())
	}
	if sft.Pages() != 0 {
		t.Fatalf("staging file table pages = %d, want 0", sft.Pages())
	}
	disk, _ := dst.LookupBlock(2)
	if dft.Fragments()[0].Entry(2).LBA() != disk*SectorsPerBlock {
		t.Fatal("target FTE for grafted page wrong")
	}
}

func TestRenameIntoOwnSubtreeRejected(t *testing.T) {
	// Found by FuzzRename: moving a directory under itself orphaned
	// the directory while its blocks stayed allocated (fsck bitmap
	// mismatch).
	fs, _ := newFS(t)
	if _, err := fs.Mkdir(nil, "/d", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(nil, "/d/sub", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"/d/x", "/d/sub/x", "/d/./x", "/d/sub/../sub/x"} {
		if err := fs.Rename(nil, "/d", dst, Root); !errors.Is(err, ErrInvalidMove) {
			t.Fatalf("Rename /d -> %s: err = %v, want ErrInvalidMove", dst, err)
		}
	}
	// A sibling directory move stays legal.
	if _, err := fs.Mkdir(nil, "/e", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(nil, "/d/sub", "/e/sub", Root); err != nil {
		t.Fatalf("legal dir move: %v", err)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatalf("fsck: %v", err)
	}
}
