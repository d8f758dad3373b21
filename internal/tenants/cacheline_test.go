package tenants

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestTenantStateWholeCacheLines: the tenants' results are allocated
// side by side in coupled setup, and each tenant's procs write theirs
// on every request of a parallel drain, so a Result must occupy whole
// cache lines. (The workload package pins its queues the same way.)
func TestTenantStateWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Result{}); n%sim.CacheLine != 0 {
		t.Errorf("Result is %d B, not a whole number of %d B lines", n, sim.CacheLine)
	}
}
