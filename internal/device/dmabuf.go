package device

import "repro/internal/sim"

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
