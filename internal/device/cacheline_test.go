package device

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestArbitersWholeCacheLines: each device's arbiter is allocated next
// to the other devices' at boot, and every grant writes its state from
// the worker draining that device's shard, so each arbiter must occupy
// whole cache lines.
func TestArbitersWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"FlatRR", unsafe.Sizeof(FlatRR{})},
		{"WRR", unsafe.Sizeof(WRR{})},
		{"TokenPrio", unsafe.Sizeof(TokenPrio{})},
	} {
		if c.size%sim.CacheLine != 0 {
			t.Errorf("%s is %d B, not a whole number of %d B lines", c.name, c.size, sim.CacheLine)
		}
	}
}
