package tenants

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestTenantStateWholeCacheLines: the tenants' results and hand-off
// queues are allocated side by side in coupled setup, and each tenant's
// procs write theirs on every request of a parallel drain, so both
// must occupy whole cache lines.
func TestTenantStateWholeCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"Result", unsafe.Sizeof(Result{})},
		{"tenantState", unsafe.Sizeof(tenantState{})},
	} {
		if c.size%sim.CacheLine != 0 {
			t.Errorf("%s is %d B, not a whole number of %d B lines", c.name, c.size, sim.CacheLine)
		}
	}
}
