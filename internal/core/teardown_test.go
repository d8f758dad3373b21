package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ext4"
	"repro/internal/sim"
)

// Machines recycle chunk arrays, DMA buffers, and queue rings through
// shared sync.Pools at teardown. An early or double Put would hand
// one machine's live buffer to another — cross-machine aliasing that
// shows up as data corruption (and as races under -race). This pins
// the teardown discipline: many multi-device machines booting,
// writing distinct patterns, verifying them, and tearing down
// concurrently must never see each other's bytes.
func TestConcurrentMachineTeardownNoAliasing(t *testing.T) {
	const (
		workers = 8
		rounds  = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sys, err := Boot(Config{Capacity: 1 << 27, Devices: 2})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Per-(worker, round) pattern: any pooled buffer that
				// escaped into another live machine shows up as a
				// mismatched fill byte.
				fill := byte(1 + w*rounds + r)
				data := bytes.Repeat([]byte{fill}, 64*1024)
				sys.Sim.Spawn("main", func(p *sim.Proc) {
					for d := 0; d < len(sys.M.Nodes); d++ {
						pr := sys.NewProcessOn(ext4.Root, d)
						path := fmt.Sprintf("/w%d", w)
						fd, err := pr.Create(p, path, 0o644)
						if err != nil {
							t.Errorf("worker %d dev %d: %v", w, d, err)
							return
						}
						if _, err := pr.Pwrite(p, fd, data, 0); err != nil {
							t.Errorf("worker %d dev %d: %v", w, d, err)
							return
						}
						_ = pr.Fsync(p, fd)
						got := make([]byte, len(data))
						if n, err := pr.Pread(p, fd, got, 0); err != nil || n != len(data) {
							t.Errorf("worker %d dev %d read: n=%d err=%v", w, d, n, err)
							return
						}
						if !bytes.Equal(got, data) {
							t.Errorf("worker %d dev %d: read back another machine's bytes (want fill %#x)", w, d, fill)
							return
						}
						_ = pr.Close(p, fd)
					}
				})
				sys.Sim.Run()
				sys.Close()
			}
		}(w)
	}
	wg.Wait()
}

// Teardown must be idempotent: every Release path nils what it puts,
// so a second Close (harness bugs do this) cannot double-Put a buffer
// into a shared pool and alias it into the next machine.
func TestDoubleCloseDoesNotDoublePut(t *testing.T) {
	sys, err := Boot(Config{Capacity: 1 << 27, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Sim.Spawn("main", func(p *sim.Proc) {
		pr := sys.NewProcess(ext4.Root)
		fd, err := pr.Create(p, "/f", 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := pr.Pwrite(p, fd, make([]byte, 8192), 0); err != nil {
			t.Error(err)
		}
		_ = pr.Close(p, fd)
	})
	sys.Sim.Run()
	sys.Close()
	sys.Close() // must be a no-op, not a second round of pool Puts
	sys.M.ReleaseResources()
}
