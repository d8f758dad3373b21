package stats

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestHistogramWholeCacheLines: the open-loop planes allocate one
// histogram per device or tenant side by side, and a parallel drain's
// workers each sample theirs on every request, so a histogram must
// occupy whole cache lines.
func TestHistogramWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Histogram{}); n%sim.CacheLine != 0 {
		t.Errorf("Histogram is %d B, not a whole number of %d B lines", n, sim.CacheLine)
	}
}
