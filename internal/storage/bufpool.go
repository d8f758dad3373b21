package storage

import "sync"

// Buffer recycling for structures whose size repeats across the
// thousands of systems an experiment sweep brings up: ext4's block
// bitmap and staging buffers, and the megabyte-class DMA buffer every
// UserLib thread and SPDK queue pins, whose allocation (and zeroing)
// once dominated boot cost. Buffers recycle dirty; a caller that needs
// zeroed contents clears what it uses.
//
// One pool per size class (size -> *sync.Pool of *[]byte); distinct
// configs see distinct pools, and an odd one-off size simply misses.
var bufPools sync.Map

// GetBuf returns a buffer of the given size, recycled when one is
// free. Contents are unspecified.
func GetBuf(size int) []byte {
	pv, _ := bufPools.Load(size)
	if pv == nil {
		pv, _ = bufPools.LoadOrStore(size, &sync.Pool{})
	}
	if v := pv.(*sync.Pool).Get(); v != nil {
		return *(v.(*[]byte))
	}
	return make([]byte, size)
}

// PutBuf returns a buffer obtained from GetBuf to its pool. The caller
// must not use the buffer afterwards.
func PutBuf(b []byte) {
	if len(b) == 0 {
		return
	}
	pv, _ := bufPools.Load(len(b))
	if pv != nil {
		pv.(*sync.Pool).Put(&b)
	}
}
