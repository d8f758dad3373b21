package ext4

import (
	"bytes"
	"testing"
)

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
