package sim

import (
	"testing"
	"unsafe"
)

// TestCacheLineStrides pins the padding that keeps a parallel drain's
// workers off each other's cache lines: every per-shard structure that
// coupled setup allocates next to another shard's occupies whole
// lines, and the shard array and CPU lanes of a two-shard simulation
// start on a line boundary, so element k of either shares no line with
// element k+1.
func TestCacheLineStrides(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pads are sized for 64-bit hosts")
	}
	for _, c := range []struct {
		name string
		size uintptr
	}{
		{"shard", unsafe.Sizeof(shard{})},
		{"cpuLane", unsafe.Sizeof(cpuLane{})},
		{"Cond", unsafe.Sizeof(Cond{})},
	} {
		if c.size%CacheLine != 0 {
			t.Errorf("%s is %d B, not a whole number of %d B lines", c.name, c.size, CacheLine)
		}
	}
	s := New()
	s.AddShard()
	cpu := s.NewCPUSet(4)
	for _, c := range []struct {
		name string
		addr unsafe.Pointer
	}{
		{"shard array", unsafe.Pointer(&s.shards[0])},
		{"CPU lanes", unsafe.Pointer(&cpu.demand[0])},
	} {
		if off := uintptr(c.addr) % CacheLine; off != 0 {
			t.Errorf("%s starts %d B into a cache line", c.name, off)
		}
	}
}

// TestCoroutineNeverDispatchedSkippedAtShutdown: a proc's coroutine is
// born at its first dispatch, so a proc spawned but never dispatched
// has none, and Shutdown must pass over it.
func TestCoroutineNeverDispatchedSkippedAtShutdown(t *testing.T) {
	s := New()
	p := s.Spawn("never", func(*Proc) { t.Error("a proc that was never dispatched ran") })
	if p.stop != nil {
		t.Fatal("Spawn created the coroutine before the first dispatch")
	}
	s.Shutdown()
}

// TestCoroutineBornInDrainUnwindsAtShutdown: procs spawned in coupled
// setup and first dispatched inside a parallel drain get their
// coroutines there, on the worker that owns their shard; Shutdown,
// called from the test's goroutine, must still unwind them.
func TestCoroutineBornInDrainUnwindsAtShutdown(t *testing.T) {
	s := New()
	s.AddShard()
	const shards = 2
	bornInDrain := make([]bool, shards)
	unwound := make([]bool, shards)
	for k := 0; k < shards; k++ {
		k := k
		cond := s.NewCond()
		s.SpawnOn(k, "parked", func(p *Proc) {
			defer func() { unwound[k] = true }()
			bornInDrain[k] = s.draining
			cond.Wait(p) // never signalled
		})
	}
	for k := 0; k < shards; k++ {
		if s.shards[k].procs[0].stop != nil {
			t.Fatalf("shard %d: coroutine created before the drain", k)
		}
	}
	s.ArmParallel(shards)
	s.Run()
	for k := 0; k < shards; k++ {
		if !bornInDrain[k] {
			t.Errorf("shard %d: proc first ran outside the drain", k)
		}
		if s.shards[k].procs[0].stop == nil {
			t.Errorf("shard %d: dispatched proc has no coroutine", k)
		}
	}
	s.Shutdown()
	for k := 0; k < shards; k++ {
		if !unwound[k] {
			t.Errorf("shard %d: Shutdown did not unwind the coroutine born in the drain", k)
		}
	}
}
