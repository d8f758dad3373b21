package device

import (
	"sync"

	"repro/internal/sim"
)

// The resources and copy model of a userspace I/O channel, shared by
// UserLib threads and SPDK queues: each thread gets a UserQueueDepth
// queue pair and a DMABufBytes pinned buffer, and every direct transfer
// stages through that buffer at CopyCost on the virtual clock.
const (
	UserQueueDepth = 256
	DMABufBytes    = 1 << 20

	copyBase sim.Time = 60 * sim.Nanosecond
	copyBW   float64  = 10.7 // bytes per nanosecond
)

// CopyCost models one memcpy of n bytes between a user buffer and a
// DMA buffer (Fig. 7's dominant "user" component).
func CopyCost(n int) sim.Time {
	return copyBase + sim.Time(float64(n)/copyBW)
}

// DMA buffer recycling. Every UserLib thread and SPDK queue pins a
// megabyte-class DMA buffer; experiment sweeps boot thousands of them,
// and allocating (and zeroing) each one dominated boot cost. Buffers
// recycle dirty — every path copies into the buffer before the device
// (or the user) reads back out of it — so reuse needs no clearing.
//
// One pool per size class (size -> *sync.Pool of *[]byte); distinct
// configs see distinct pools, and an odd one-off size simply misses.
var dmaPools sync.Map

// GetDMABuf returns a buffer of the given size, recycled when one is
// free. Contents are unspecified.
func GetDMABuf(size int) []byte {
	pv, _ := dmaPools.Load(size)
	if pv == nil {
		pv, _ = dmaPools.LoadOrStore(size, &sync.Pool{})
	}
	if v := pv.(*sync.Pool).Get(); v != nil {
		return *(v.(*[]byte))
	}
	return make([]byte, size)
}

// PutDMABuf returns a buffer obtained from GetDMABuf to its pool. The
// caller must not use the buffer afterwards.
func PutDMABuf(b []byte) {
	if len(b) == 0 {
		return
	}
	pv, _ := dmaPools.Load(len(b))
	if pv != nil {
		pv.(*sync.Pool).Put(&b)
	}
}

// ReleaseResources returns the device's recyclable boot-time
// structures — every registered queue pair's rings — to their shared
// pools. Only a teardown path that owns the whole machine
// (core.System.Close) may call it; the device must not be used
// afterwards.
func (d *SSD) ReleaseResources() {
	for _, q := range d.queues {
		q.ReleaseRings()
	}
	d.queues = nil
}
