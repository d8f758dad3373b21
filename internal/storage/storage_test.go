package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnwrittenReadsZero(t *testing.T) {
	s := New(1000)
	buf := make([]byte, 3*SectorSize)
	for i := range buf {
		buf[i] = 0xff
	}
	if err := s.ReadSectors(10, 3, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(1000)
	w := make([]byte, 5*SectorSize)
	rand.New(rand.NewSource(7)).Read(w)
	if err := s.WriteSectors(123, 5, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 5*SectorSize)
	if err := s.ReadSectors(123, 5, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("round trip mismatch")
	}
}

func TestWriteStraddlesChunks(t *testing.T) {
	s := New(10 * chunkSectors)
	w := make([]byte, 4*SectorSize)
	for i := range w {
		w[i] = byte(i)
	}
	start := int64(chunkSectors - 2) // straddle chunk boundary
	if err := s.WriteSectors(start, 4, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 4*SectorSize)
	if err := s.ReadSectors(start, 4, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("chunk-straddling write corrupted")
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(100)
	buf := make([]byte, SectorSize)
	if err := s.ReadSectors(100, 1, buf); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := s.WriteSectors(-1, 1, buf); err == nil {
		t.Fatal("negative write succeeded")
	}
	if err := s.ReadSectors(99, 2, make([]byte, 2*SectorSize)); err == nil {
		t.Fatal("straddling-end read succeeded")
	}
}

func TestShortBuffer(t *testing.T) {
	s := New(100)
	if err := s.ReadSectors(0, 2, make([]byte, SectorSize)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := s.WriteSectors(0, 2, make([]byte, SectorSize)); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

func TestZero(t *testing.T) {
	s := New(10 * chunkSectors)
	w := make([]byte, SectorSize)
	for i := range w {
		w[i] = 0xab
	}
	for sec := int64(0); sec < 3*chunkSectors; sec++ {
		if err := s.WriteSectors(sec, 1, w); err != nil {
			t.Fatal(err)
		}
	}
	// Zero a range that partially covers chunk 0 and fully covers chunk 1.
	if err := s.Zero(chunkSectors/2, chunkSectors+chunkSectors/2); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, SectorSize)
	checks := []struct {
		sec  int64
		zero bool
	}{
		{0, false},
		{chunkSectors/2 - 1, false},
		{chunkSectors / 2, true},
		{chunkSectors, true},
		{2*chunkSectors - 1, true},
		{2 * chunkSectors, false},
	}
	for _, c := range checks {
		if err := s.ReadSectors(c.sec, 1, r); err != nil {
			t.Fatal(err)
		}
		isZero := true
		for _, b := range r {
			if b != 0 {
				isZero = false
				break
			}
		}
		if isZero != c.zero {
			t.Errorf("sector %d zero=%v, want %v", c.sec, isZero, c.zero)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	s := New(100)
	w := []byte{1, 2, 3}
	buf := make([]byte, SectorSize)
	copy(buf, w)
	if err := s.WriteSectors(5, 1, buf); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	buf2 := make([]byte, SectorSize)
	buf2[0] = 99
	if err := c.WriteSectors(5, 1, buf2); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, SectorSize)
	if err := s.ReadSectors(5, 1, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 1 {
		t.Fatalf("clone write leaked to original: %d", r[0])
	}
	if err := c.ReadSectors(5, 1, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 99 {
		t.Fatalf("clone lost its write: %d", r[0])
	}
}

func TestNewBytesAlignment(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned capacity did not panic")
		}
	}()
	NewBytes(SectorSize + 1)
}

// Property: a random sequence of writes followed by reads behaves like
// a flat byte array.
func TestStoreMatchesFlatArrayProperty(t *testing.T) {
	const sectors = 256
	f := func(ops []struct {
		Sec  uint8
		N    uint8
		Seed int64
	}) bool {
		s := New(sectors)
		ref := make([]byte, sectors*SectorSize)
		for _, op := range ops {
			sec := int64(op.Sec) % sectors
			n := int64(op.N)%8 + 1
			if sec+n > sectors {
				n = sectors - sec
			}
			buf := make([]byte, n*SectorSize)
			rand.New(rand.NewSource(op.Seed)).Read(buf)
			if err := s.WriteSectors(sec, n, buf); err != nil {
				return false
			}
			copy(ref[sec*SectorSize:], buf)
		}
		got := make([]byte, sectors*SectorSize)
		if err := s.ReadSectors(0, sectors, got); err != nil {
			return false
		}
		return bytes.Equal(ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPopulatedBytes: backing memory is allocated one chunk at a time,
// only where sectors are written.
func TestPopulatedBytes(t *testing.T) {
	s := New(10 * chunkSectors)
	if len(s.chunks) != 0 {
		t.Fatal("fresh store populated")
	}
	buf := make([]byte, SectorSize)
	_ = s.WriteSectors(0, 1, buf)
	_ = s.WriteSectors(5*chunkSectors, 1, buf)
	if got := len(s.chunks); got != 2 {
		t.Fatalf("populated chunks = %d, want 2", got)
	}
}
