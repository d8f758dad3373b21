package frontend

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestDevResultWholeCacheLines: the devices' results are allocated side
// by side in coupled setup, and each device's procs write theirs on
// every request of a parallel drain, so a DevResult must occupy whole
// cache lines.
func TestDevResultWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(DevResult{}); n%sim.CacheLine != 0 {
		t.Errorf("DevResult is %d B, not a whole number of %d B lines", n, sim.CacheLine)
	}
}
