package ext4

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/storage"
)

const testCapacity = 64 << 20 // 64 MiB

// newFS formats and mounts a fresh file system over a new store.
func newFS(t *testing.T) (*FS, *storage.Store) {
	t.Helper()
	st := storage.NewBytes(testCapacity)
	bio := &Direct{St: st}
	opt := DefaultOptions(testCapacity)
	opt.Inodes = 512
	if err := Mkfs(bio, opt); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(bio, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs, st
}

func TestMkfsMountRoundTrip(t *testing.T) {
	fs, _ := newFS(t)
	root, err := fs.GetInode(nil, RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if !root.IsDir() {
		t.Fatal("root is not a directory")
	}
	if err := fs.Check(nil); err != nil {
		t.Fatalf("fresh fs fails fsck: %v", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs, _ := newFS(t)
	in, err := fs.Create(nil, "/data.bin", 0o644, Root)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(w)
	if n, err := fs.WriteAt(nil, in, 0, w); err != nil || n != len(w) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if in.Size != 10000 {
		t.Fatalf("size = %d", in.Size)
	}
	r := make([]byte, 10000)
	if n, err := fs.ReadAt(nil, in, 0, r); err != nil || n != len(r) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("data mismatch")
	}
	// Short read at EOF.
	if n, err := fs.ReadAt(nil, in, 9000, r); err != nil || n != 1000 {
		t.Fatalf("eof read: n=%d err=%v", n, err)
	}
	if n, err := fs.ReadAt(nil, in, 20000, r); err != nil || n != 0 {
		t.Fatalf("past-eof read: n=%d err=%v", n, err)
	}
}

func TestUnalignedOverwrites(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/f", 0o644, Root)
	base := make([]byte, 3*BlockSize)
	for i := range base {
		base[i] = 0x11
	}
	if _, err := fs.WriteAt(nil, in, 0, base); err != nil {
		t.Fatal(err)
	}
	patch := []byte("HELLO-ACROSS-BLOCKS")
	off := int64(BlockSize - 7)
	if _, err := fs.WriteAt(nil, in, off, patch); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[off:], patch)
	got := make([]byte, len(base))
	if _, err := fs.ReadAt(nil, in, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("RMW overwrite corrupted surrounding data")
	}
}

// allocBytesPerOp reports the mean heap bytes one warm call of f
// allocates.
func allocBytesPerOp(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A warm unaligned read or RMW write borrows its bounce buffer from
// the storage pool instead of allocating one per call. The bound sits
// at half the bounce buffer: the race detector drops a quarter of
// sync.Pool puts at random, so a -race run allocates one about every
// fourth call.
func TestUnalignedIOBounceBufferPooled(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/f", 0o644, Root)
	if _, err := fs.WriteAt(nil, in, 0, make([]byte, 4*BlockSize)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	for _, c := range []struct {
		name   string
		bounce uint64 // the bounce buffer's size
		op     func() (int, error)
	}{
		{"read", BlockSize, func() (int, error) { return fs.ReadAt(nil, in, BlockSize+100, buf) }},
		{"rmw-write", BlockSize, func() (int, error) { return fs.WriteAt(nil, in, BlockSize+100, buf) }},
		{"read-across-blocks", 2 * BlockSize, func() (int, error) { return fs.ReadAt(nil, in, 2*BlockSize-50, buf) }},
		{"rmw-write-across-blocks", 2 * BlockSize, func() (int, error) { return fs.WriteAt(nil, in, 2*BlockSize-50, buf) }},
	} {
		got := allocBytesPerOp(100, func() {
			if n, err := c.op(); err != nil || n != len(buf) {
				t.Fatalf("%s: n=%d err=%v", c.name, n, err)
			}
		})
		if got >= c.bounce/2 {
			t.Errorf("warm unaligned %s allocates %d B/op; the bounce buffer is not pooled", c.name, got)
		}
	}
}

// Pooled RMW buffers recycle dirty, so the write path must clear
// what it does not overwrite: an unaligned write that allocates fresh
// blocks still leaves zeros around its payload.
func TestUnalignedWriteFreshBlocksReadZeroFromDirtyPool(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/f", 0o644, Root)
	for _, size := range []int{BlockSize, 2 * BlockSize} {
		b := storage.GetBuf(size)
		for i := range b {
			b[i] = 0xff
		}
		storage.PutBuf(b)
	}
	patch := bytes.Repeat([]byte{0x42}, 100)
	const off = BlockSize - 50 // straddles two fresh blocks
	if _, err := fs.WriteAt(nil, in, off, patch); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*BlockSize)
	if _, err := fs.ReadAt(nil, in, 0, got[:in.Size]); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*BlockSize)
	copy(want[off:], patch)
	if !bytes.Equal(got[:in.Size], want[:in.Size]) {
		t.Fatal("fresh blocks around an unaligned write are not zero")
	}
}

func TestDirectories(t *testing.T) {
	fs, _ := newFS(t)
	if _, err := fs.Mkdir(nil, "/a", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mkdir(nil, "/a/b", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(nil, "/a/b/c.txt", 0o644, Root); err != nil {
		t.Fatal(err)
	}
	in, err := fs.Lookup(nil, "/a/b/c.txt", Root)
	if err != nil {
		t.Fatal(err)
	}
	if in.IsDir() {
		t.Fatal("file resolved as dir")
	}
	if _, err := fs.Lookup(nil, "/a/b/missing", Root); !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
	if _, err := fs.Create(nil, "/a/b/c.txt", 0o644, Root); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create = %v, want ErrExist", err)
	}
	if _, err := fs.Create(nil, "/a/b/c.txt/x", 0o644, Root); !errors.Is(err, ErrNotDir) {
		t.Fatalf("create under file = %v, want ErrNotDir", err)
	}
	dir, _ := fs.Lookup(nil, "/a/b", Root)
	entries, err := fs.ReadDir(nil, dir)
	if err != nil || len(entries) != 1 || entries[0].Name != "c.txt" {
		t.Fatalf("readdir = %v, %v", entries, err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermissions(t *testing.T) {
	fs, _ := newFS(t)
	alice := Cred{UID: 100, GID: 100}
	bob := Cred{UID: 200, GID: 200}
	carol := Cred{UID: 300, GID: 100} // shares alice's group

	// Root's / is 0755, so alice needs her own writable directory.
	if _, err := fs.Mkdir(nil, "/home", 0o777, Root); err != nil {
		t.Fatal(err)
	}
	in, err := fs.Create(nil, "/home/secret", 0o640, alice)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Access(in, alice, true); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if err := fs.Access(in, carol, false); err != nil {
		t.Fatalf("group read: %v", err)
	}
	if err := fs.Access(in, carol, true); !errors.Is(err, ErrPerm) {
		t.Fatalf("group write = %v, want ErrPerm", err)
	}
	if err := fs.Access(in, bob, false); !errors.Is(err, ErrPerm) {
		t.Fatalf("other read = %v, want ErrPerm", err)
	}
	if err := fs.Access(in, Root, true); err != nil {
		t.Fatalf("root write: %v", err)
	}
	// Bob cannot create in a 0700 dir owned by alice — nor in /.
	if _, err := fs.Mkdir(nil, "/home/priv", 0o700, alice); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(nil, "/home/priv/x", 0o644, bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("create in private dir = %v, want ErrPerm", err)
	}
	if _, err := fs.Create(nil, "/rootonly", 0o644, bob); !errors.Is(err, ErrPerm) {
		t.Fatalf("create in / by non-root = %v, want ErrPerm", err)
	}
}

// newTinyFS builds a small file system whose data area can be nearly
// filled, so allocation holes actually fragment the next big file.
func newTinyFS(t *testing.T) (*FS, *storage.Store) {
	t.Helper()
	const capacity = 4 << 20
	st := storage.NewBytes(capacity)
	bio := &Direct{St: st}
	opt := DefaultOptions(capacity)
	opt.Inodes = 1024
	opt.JournalBlocks = 64
	if err := Mkfs(bio, opt); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(bio, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs, st
}

// fragment fills most of the disk with 1-block files and frees every
// other one, leaving single-block holes.
func fragment(t *testing.T, fs *FS, files int) {
	t.Helper()
	blk := make([]byte, BlockSize)
	for i := 0; i < files; i++ {
		in, err := fs.Create(nil, fmt.Sprintf("/frag%d", i), 0o644, Root)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(nil, in, 0, blk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i += 2 {
		if err := fs.Unlink(nil, fmt.Sprintf("/frag%d", i), Root); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Commit(nil); err != nil { // release pending frees
		t.Fatal(err)
	}
}

func TestExtentChainSpill(t *testing.T) {
	fs, st := newTinyFS(t)
	fragment(t, fs, 600)
	in, err := fs.Create(nil, "/big", 0o644, Root)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 350*BlockSize)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := fs.WriteAt(nil, in, 0, data); err != nil {
		t.Fatal(err)
	}
	if len(in.Extents) <= InlineExtents {
		t.Fatalf("extents = %d, want > %d (fragmentation failed)", len(in.Extents), InlineExtents)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}

	// Remount cold and verify the chain reloads correctly.
	fs2, err := Mount(&Direct{St: st}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := fs2.Lookup(nil, "/big", Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(in2.Extents) != len(in.Extents) {
		t.Fatalf("extent count after remount = %d, want %d", len(in2.Extents), len(in.Extents))
	}
	got := make([]byte, len(data))
	if _, err := fs2.ReadAt(nil, in2, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatal("data mismatch after chain reload")
	}
	if err := fs2.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateShrinkAndRegrowZeroes(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/t", 0o644, Root)
	data := make([]byte, 2*BlockSize)
	for i := range data {
		data[i] = 0xaa
	}
	if _, err := fs.WriteAt(nil, in, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(nil, in, 100); err != nil {
		t.Fatal(err)
	}
	if in.Size != 100 {
		t.Fatalf("size = %d", in.Size)
	}
	if pendingFreeBlocks(fs) != 1 {
		t.Fatalf("pending free = %d, want 1", pendingFreeBlocks(fs))
	}
	if err := fs.Truncate(nil, in, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2*BlockSize)
	if _, err := fs.ReadAt(nil, in, 0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0)
		if i < 100 {
			want = 0xaa
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x (stale data exposed)", i, b, want)
		}
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFallocateZeroes(t *testing.T) {
	fs, _ := newFS(t)
	// Dirty some blocks with a secret, free them, recreate.
	in, _ := fs.Create(nil, "/secret", 0o600, Root)
	secret := bytes.Repeat([]byte("PASSWORD"), BlockSize/8)
	if _, err := fs.WriteAt(nil, in, 0, secret); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(nil, "/secret", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}

	in2, _ := fs.Create(nil, "/fresh", 0o644, Root)
	if err := fs.Fallocate(nil, in2, BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if _, err := fs.ReadAt(nil, in2, 0, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("fallocated block leaked old data at %d: %#x", i, b)
		}
	}
}

func TestSparseWritePastEOFZeroFills(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/sparse", 0o644, Root)
	if _, err := fs.WriteAt(nil, in, 0, []byte("head")); err != nil {
		t.Fatal(err)
	}
	off := int64(3*BlockSize + 17)
	if _, err := fs.WriteAt(nil, in, off, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, off+4)
	if _, err := fs.ReadAt(nil, in, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "head" || string(got[off:]) != "tail" {
		t.Fatal("sparse write lost data")
	}
	for i := int64(4); i < off; i++ {
		if got[i] != 0 {
			t.Fatalf("gap byte %d = %#x, want 0", i, got[i])
		}
	}
}

func TestUnlinkDefersBlockReuse(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/victim", 0o644, Root)
	data := make([]byte, 4*BlockSize)
	if _, err := fs.WriteAt(nil, in, 0, data); err != nil {
		t.Fatal(err)
	}
	victimBlocks := in.BlockMap()
	if err := fs.Unlink(nil, "/victim", Root); err != nil {
		t.Fatal(err)
	}
	// Before commit: the freed blocks must not be reallocated.
	in2, _ := fs.Create(nil, "/next", 0o644, Root)
	if _, err := fs.WriteAt(nil, in2, 0, data); err != nil {
		t.Fatal(err)
	}
	reused := map[int64]bool{}
	for _, b := range in2.BlockMap() {
		reused[b] = true
	}
	for _, b := range victimBlocks {
		if reused[b] {
			t.Fatalf("block %d reused before sync point", b)
		}
	}
	// After commit they are reusable.
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if pendingFreeBlocks(fs) != 0 {
		t.Fatalf("pending free = %d after commit", pendingFreeBlocks(fs))
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFileTableTracksAllocation(t *testing.T) {
	fs, _ := newFS(t)
	in, _ := fs.Create(nil, "/f", 0o644, Root)
	if _, err := fs.WriteAt(nil, in, 0, make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	ft, built := fs.FileTable(in)
	if !built {
		t.Fatal("first FileTable call should build (cold)")
	}
	if ft.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", ft.Pages())
	}
	if _, built := fs.FileTable(in); built {
		t.Fatal("second FileTable call should be warm")
	}

	// Appending keeps the shared table in sync.
	if _, err := fs.WriteAt(nil, in, 2*BlockSize, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if ft.Pages() != 3 {
		t.Fatalf("pages after append = %d, want 3", ft.Pages())
	}
	disk, _ := in.LookupBlock(2)
	// FTE for page 2 must hold the new block's sector address.
	frag := ft.Fragments()[0]
	if frag.Entry(2).LBA() != disk*SectorsPerBlock {
		t.Fatalf("FTE lba = %d, want %d", frag.Entry(2).LBA(), disk*SectorsPerBlock)
	}

	// Truncation revokes the pages.
	if err := fs.Truncate(nil, in, BlockSize); err != nil {
		t.Fatal(err)
	}
	if ft.Pages() != 1 {
		t.Fatalf("pages after truncate = %d, want 1", ft.Pages())
	}
}

func TestNoSpace(t *testing.T) {
	st := storage.NewBytes(2 << 20) // 2 MiB: tiny
	bio := &Direct{St: st}
	opt := DefaultOptions(2 << 20)
	opt.Inodes = 64
	opt.JournalBlocks = 16
	if err := Mkfs(bio, opt); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(bio, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := fs.Create(nil, "/big", 0o644, Root)
	huge := make([]byte, 4<<20)
	if _, err := fs.WriteAt(nil, in, 0, huge); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Failed allocation must not corrupt the fs.
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkNonEmptyDir(t *testing.T) {
	fs, _ := newFS(t)
	if _, err := fs.Mkdir(nil, "/d", 0o755, Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(nil, "/d/f", 0o644, Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(nil, "/d", Root); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("err = %v, want ErrNotEmpty", err)
	}
	if err := fs.Unlink(nil, "/d/f", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(nil, "/d", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.Check(nil); err != nil {
		t.Fatal(err)
	}
}

// pendingFreeBlocks counts the blocks freed but not yet released by a
// commit.
func pendingFreeBlocks(fs *FS) int64 {
	var n int64
	for _, e := range fs.pendingFree {
		n += int64(e.Count)
	}
	return n
}
