package frontend

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestDevResultWholeCacheLines: the devices' results and shared
// serving states are allocated side by side in coupled setup, and each
// device's procs write theirs on every request of a parallel drain, so
// both must occupy whole cache lines.
func TestDevResultWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"DevResult", unsafe.Sizeof(DevResult{})},
		{"devState", unsafe.Sizeof(devState{})},
	} {
		if c.size%sim.CacheLine != 0 {
			t.Errorf("%s is %d B, not a whole number of %d B lines", c.name, c.size, sim.CacheLine)
		}
	}
}
