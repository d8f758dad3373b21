package storage

import (
	"bytes"
	"testing"
)

func TestViewWindowing(t *testing.T) {
	s := New(1000)
	v, err := NewView(s, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if v.Span != 200 {
		t.Fatalf("view sectors = %d", v.Span)
	}
	w := make([]byte, SectorSize)
	w[0] = 0x7b
	if err := v.WriteSectors(5, 1, w); err != nil {
		t.Fatal(err)
	}
	// View sector 5 is parent sector 105.
	r := make([]byte, SectorSize)
	if err := s.ReadSectors(105, 1, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 0x7b {
		t.Fatalf("view write landed at wrong parent sector")
	}
	// Read back through the view.
	r2 := make([]byte, SectorSize)
	if err := v.ReadSectors(5, 1, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, r2) {
		t.Fatal("view read mismatch")
	}
}

func TestViewBounds(t *testing.T) {
	s := New(1000)
	v, _ := NewView(s, 100, 200)
	buf := make([]byte, SectorSize)
	if err := v.ReadSectors(200, 1, buf); err == nil {
		t.Fatal("read past window succeeded")
	}
	if err := v.WriteSectors(-1, 1, buf); err == nil {
		t.Fatal("negative write succeeded")
	}
	if err := v.Zero(199, 2); err == nil {
		t.Fatal("zero straddling window end succeeded")
	}
	if err := v.Zero(0, 200); err != nil {
		t.Fatalf("full-window zero: %v", err)
	}
}

func TestViewIsolationBetweenViews(t *testing.T) {
	s := New(1000)
	a, _ := NewView(s, 0, 500)
	b, _ := NewView(s, 500, 500)
	w := make([]byte, SectorSize)
	w[0] = 1
	if err := a.WriteSectors(10, 1, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, SectorSize)
	if err := b.ReadSectors(10, 1, r); err != nil {
		t.Fatal(err)
	}
	if r[0] != 0 {
		t.Fatal("views alias the same sectors")
	}
}

func TestViewZeroAppliesWindow(t *testing.T) {
	s := New(1000)
	w := make([]byte, SectorSize)
	w[0] = 0xff
	_ = s.WriteSectors(150, 1, w)
	_ = s.WriteSectors(50, 1, w)
	v, _ := NewView(s, 100, 200)
	if err := v.Zero(50, 1); err != nil { // parent 150
		t.Fatal(err)
	}
	r := make([]byte, SectorSize)
	_ = s.ReadSectors(150, 1, r)
	if r[0] != 0 {
		t.Fatal("view zero missed its target")
	}
	_ = s.ReadSectors(50, 1, r)
	if r[0] != 0xff {
		t.Fatal("view zero leaked outside the window")
	}
}

func TestNewViewValidation(t *testing.T) {
	s := New(1000)
	for _, c := range []struct{ base, span int64 }{
		{-1, 10}, {0, 0}, {990, 20}, {1000, 1},
	} {
		if _, err := NewView(s, c.base, c.span); err == nil {
			t.Errorf("view [%d,+%d) accepted", c.base, c.span)
		}
	}
}
