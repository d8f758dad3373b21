package device

import (
	"bytes"
	"testing"

	"repro/internal/iommu"
	"repro/internal/nvme"
	"repro/internal/pagetable"
	"repro/internal/sim"
	"repro/internal/storage"
)

const capBytes = 1 << 30

func newSSD(s *sim.Sim) *SSD {
	return New(s, OptaneP5800X(capBytes))
}

// doIO submits one command and busy-waits for its completion.
func doIO(p *sim.Proc, q *nvme.QueuePair, e nvme.SQE) nvme.CQE {
	if err := q.Submit(e); err != nil {
		panic(err)
	}
	for {
		if c, ok := q.PopCQE(); ok {
			return c
		}
		q.CQReady.Wait(p)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var got []byte
	s.Spawn("app", func(p *sim.Proc) {
		q, err := d.CreateQueue(0, 16)
		if err != nil {
			t.Error(err)
			return
		}
		w := make([]byte, 4096)
		for i := range w {
			w[i] = byte(i * 7)
		}
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, SLBA: 80, Sectors: 8, Buf: w})
		if !c.Status.OK() {
			t.Errorf("write status %v", c.Status)
		}
		r := make([]byte, 4096)
		c = doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 2, SLBA: 80, Sectors: 8, Buf: r})
		if !c.Status.OK() {
			t.Errorf("read status %v", c.Status)
		}
		got = r
		if !bytes.Equal(w, r) {
			t.Error("data mismatch through device")
		}
	})
	s.Run()
	if got == nil {
		t.Fatal("app never completed")
	}
	s.Shutdown()
}

func Test4KReadDeviceTime(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var lat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		start := p.Now()
		doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 8, Buf: buf})
		lat = p.Now() - start
	})
	s.Run()
	// Table 1: device time for a 4 KiB read ≈ 4020 ns.
	if lat < 4000 || lat > 4100 {
		t.Fatalf("4K read device time = %v, want ~4.02µs", lat)
	}
	s.Shutdown()
}

func TestLargeReadBandwidth(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var lat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 128*1024)
		start := p.Now()
		doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 256, Buf: buf})
		lat = p.Now() - start
	})
	s.Run()
	// 3435 + 131072/7.0 ≈ 22.2µs
	if lat < 21*sim.Microsecond || lat > 24*sim.Microsecond {
		t.Fatalf("128K read time = %v, want ~22µs", lat)
	}
	s.Shutdown()
}

func TestIOPSSaturation(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	const threads = 24
	const opsEach = 200
	done := 0
	for i := 0; i < threads; i++ {
		s.Spawn("worker", func(p *sim.Proc) {
			q, _ := d.CreateQueue(0, 16)
			buf := make([]byte, 4096)
			for n := 0; n < opsEach; n++ {
				doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: uint16(n), SLBA: int64(n * 8), Sectors: 8, Buf: buf})
			}
			done++
		})
	}
	s.Run()
	if done != threads {
		t.Fatalf("done = %d", done)
	}
	iops := float64(threads*opsEach) / s.Now().Seconds()
	// Six channels at 4.02µs each => ~1.49M IOPS ceiling.
	if iops < 1.3e6 || iops > 1.6e6 {
		t.Fatalf("saturated IOPS = %.0f, want ~1.49M", iops)
	}
	s.Shutdown()
}

func TestRoundRobinFairness(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	// One process floods with deep queues; another issues QD-1 reads.
	// Round-robin arbitration must keep the light process's latency
	// bounded near (channels busy) not (queue drained).
	var lightLat sim.Time
	var lightOps int
	s.Spawn("flood", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 256)
		buf := make([]byte, 4096)
		outstanding := 0
		for n := 0; n < 2000; n++ {
			for outstanding >= 64 {
				if _, ok := q.PopCQE(); ok {
					outstanding--
					continue
				}
				q.CQReady.Wait(p)
			}
			if err := q.Submit(nvme.SQE{Opcode: nvme.OpRead, CID: uint16(n), SLBA: int64(n%1000) * 8, Sectors: 8, Buf: buf}); err != nil {
				t.Error(err)
				return
			}
			outstanding++
		}
	})
	s.Spawn("light", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		p.Sleep(100 * sim.Microsecond) // let the flood build up
		var total sim.Time
		const ops = 50
		for n := 0; n < ops; n++ {
			st := p.Now()
			doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: uint16(n), SLBA: 8, Sectors: 8, Buf: buf})
			total += p.Now() - st
			lightOps++
		}
		lightLat = total / ops
	})
	s.Run()
	if lightOps != 50 {
		t.Fatalf("light process finished %d ops", lightOps)
	}
	// With RR arbitration the light queue waits at most ~one grant
	// cycle; without it, it would sit behind 64 queued commands
	// (~40µs+). Allow generous headroom.
	if lightLat > 25*sim.Microsecond {
		t.Fatalf("light process latency %v under flood, want < 25µs (RR fairness)", lightLat)
	}
	s.Shutdown()
}

func TestFlushWaitsForWrites(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	var flushDone, writeDone sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		if err := q.Submit(nvme.SQE{Opcode: nvme.OpWrite, CID: 1, SLBA: 0, Sectors: 8, Buf: buf}); err != nil {
			t.Error(err)
			return
		}
		if err := q.Submit(nvme.SQE{Opcode: nvme.OpFlush, CID: 2}); err != nil {
			t.Error(err)
			return
		}
		for n := 0; n < 2; {
			c, ok := q.PopCQE()
			if !ok {
				q.CQReady.Wait(p)
				continue
			}
			n++
			switch c.CID {
			case 1:
				writeDone = p.Now()
			case 2:
				flushDone = p.Now()
			}
		}
	})
	s.Run()
	if flushDone <= writeDone {
		t.Fatalf("flush (%v) completed before write (%v)", flushDone, writeDone)
	}
	if d.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", d.Stats().Flushes)
	}
	s.Shutdown()
}

func TestLBAOutOfRange(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: d.Sectors(), Sectors: 8, Buf: buf})
		if c.Status != nvme.StatusLBAOutOfRange {
			t.Errorf("status = %v, want lba-out-of-range", c.Status)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestWriteZeroes(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		w := make([]byte, 4096)
		for i := range w {
			w[i] = 0xee
		}
		doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, SLBA: 16, Sectors: 8, Buf: w})
		doIO(p, q, nvme.SQE{Opcode: nvme.OpWriteZeroes, CID: 2, SLBA: 16, Sectors: 8, Buf: w})
		r := make([]byte, 4096)
		doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 3, SLBA: 16, Sectors: 8, Buf: r})
		for i, b := range r {
			if b != 0 {
				t.Errorf("byte %d = %#x after write-zeroes", i, b)
				return
			}
		}
	})
	s.Run()
	s.Shutdown()
}

// vbaSetup creates a device with IOMMU, a process page table mapping
// a 4-page file at base, and a queue bound to the PASID.
func vbaSetup(s *sim.Sim, rw bool) (*SSD, *nvme.QueuePair, uint64) {
	d := newSSD(s)
	u := iommu.New(iommu.DefaultConfig())
	d.AttachIOMMU(u)
	base := uint64(0x2000_0000_0000)
	ft := pagetable.BuildFileTable(d.Config().DevID, []int64{80, 88, 96, 104})
	tab := pagetable.New()
	if _, err := ft.Attach(tab, base, rw); err != nil {
		panic(err)
	}
	u.RegisterPASID(7, tab)
	q, err := d.CreateQueue(7, 16)
	if err != nil {
		panic(err)
	}
	return d, q, base
}

func TestVBAReadWrite(t *testing.T) {
	s := sim.New()
	d, q, base := vbaSetup(s, true)
	s.Spawn("app", func(p *sim.Proc) {
		w := make([]byte, 4096)
		for i := range w {
			w[i] = byte(i)
		}
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, UseVBA: true, VBA: base + 4096, Sectors: 8, Buf: w})
		if !c.Status.OK() {
			t.Errorf("VBA write = %v", c.Status)
			return
		}
		// The write landed at the file's second page => sector 88.
		r := make([]byte, 4096)
		if err := d.Store().ReadSectors(88, 8, r); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(w, r) {
			t.Error("VBA write landed at wrong sectors")
		}
		// And reads back through the VBA path.
		r2 := make([]byte, 4096)
		c = doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 2, UseVBA: true, VBA: base + 4096, Sectors: 8, Buf: r2})
		if !c.Status.OK() || !bytes.Equal(w, r2) {
			t.Errorf("VBA read = %v", c.Status)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestVBAReadSerializesTranslation(t *testing.T) {
	s := sim.New()
	_, q, base := vbaSetup(s, true)
	var readLat, writeLat sim.Time
	s.Spawn("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		st := p.Now()
		doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf})
		readLat = p.Now() - st
		st = p.Now()
		doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 2, UseVBA: true, VBA: base, Sectors: 8, Buf: buf})
		writeLat = p.Now() - st
	})
	s.Run()
	// Read: 550ns translation + ~4020ns media, serialized (§4.3).
	if readLat < 4500 || readLat > 4700 {
		t.Fatalf("VBA read latency = %v, want ~4.57µs", readLat)
	}
	// Write: translation overlaps the transfer => no added delay.
	if writeLat > 4600 {
		t.Fatalf("VBA write latency = %v, want media time only", writeLat)
	}
	s.Shutdown()
}

func TestVBAPermissionDenied(t *testing.T) {
	s := sim.New()
	_, q, base := vbaSetup(s, false) // read-only mapping
	s.Spawn("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpWrite, CID: 1, UseVBA: true, VBA: base, Sectors: 8, Buf: buf})
		if c.Status != nvme.StatusAccessDenied {
			t.Errorf("status = %v, want access-denied", c.Status)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestVBAUnmappedFaults(t *testing.T) {
	s := sim.New()
	d, q, base := vbaSetup(s, true)
	s.Spawn("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		// Far beyond the 4-page file: no FTE.
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: base + 512*4096, Sectors: 8, Buf: buf})
		if c.Status != nvme.StatusTranslationFault {
			t.Errorf("status = %v, want translation-fault", c.Status)
		}
	})
	s.Run()
	if d.Stats().Faults != 1 {
		t.Fatalf("device fault count = %d", d.Stats().Faults)
	}
	s.Shutdown()
}

func TestVBAWithoutIOMMURejected(t *testing.T) {
	s := sim.New()
	d := newSSD(s) // no IOMMU attached
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		c := doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, UseVBA: true, VBA: 0x1000, Sectors: 8, Buf: buf})
		if c.Status != nvme.StatusInvalidField {
			t.Errorf("status = %v, want invalid-field", c.Status)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestQueueAccounting(t *testing.T) {
	s := sim.New()
	d := newSSD(s)
	s.Spawn("app", func(p *sim.Proc) {
		q1, _ := d.CreateQueue(0, 16)
		q2, _ := d.CreateQueue(0, 16)
		buf := make([]byte, 4096)
		doIO(p, q1, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 0, Sectors: 8, Buf: buf})
		doIO(p, q2, nvme.SQE{Opcode: nvme.OpRead, CID: 2, SLBA: 0, Sectors: 8, Buf: buf})
		doIO(p, q2, nvme.SQE{Opcode: nvme.OpRead, CID: 3, SLBA: 0, Sectors: 8, Buf: buf})
	})
	s.Run()
	if d.OpsOnQueue(1) != 1 || d.OpsOnQueue(2) != 2 {
		t.Fatalf("queue ops = %d/%d, want 1/2", d.OpsOnQueue(1), d.OpsOnQueue(2))
	}
	st := d.Stats()
	if st.Reads != 3 || st.BytesRead != 3*4096 {
		t.Fatalf("stats = %+v", st)
	}
	s.Shutdown()
}

func TestBootFromExistingStore(t *testing.T) {
	st := storage.NewBytes(capBytes)
	w := make([]byte, 512)
	w[0] = 0x42
	if err := st.WriteSectors(9, 1, w); err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	d := NewWithStore(s, OptaneP5800X(capBytes), st)
	s.Spawn("app", func(p *sim.Proc) {
		q, _ := d.CreateQueue(0, 4)
		r := make([]byte, 512)
		doIO(p, q, nvme.SQE{Opcode: nvme.OpRead, CID: 1, SLBA: 9, Sectors: 1, Buf: r})
		if r[0] != 0x42 {
			t.Error("prebuilt image not visible through device")
		}
	})
	s.Run()
	s.Shutdown()
}
