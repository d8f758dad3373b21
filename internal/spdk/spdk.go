// Package spdk implements the SPDK-like baseline: a userspace NVMe
// driver with no file system and no kernel on the data path. It maps
// the device's raw LBA space into the process, so it achieves the
// lowest possible latency — and, exactly as the paper argues (§2),
// it cannot be shared: the process claims the whole device, and any
// "file" is just a named range of raw sectors with no permission
// enforcement.
package spdk

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// libOverhead is the per-command software cost (request build and
// completion handling): UserLib's, minus interception.
const libOverhead = 100 * sim.Nanosecond

// Region names a contiguous run of raw sectors ("file" without a file
// system — applications carve the device themselves, as SPDK apps
// must).
type Region struct {
	Sector  int64
	Sectors int64
}

// Bytes reports the region size.
func (r Region) Bytes() int64 { return r.Sectors * storage.SectorSize }

// Driver is an exclusive userspace claim on a device.
type Driver struct {
	cpu *sim.CPUSet
	dev *device.SSD

	files map[string]Region
	next  int64 // allocation cursor in sectors

	// dmaBufs tracks queue DMA buffers for recycling at teardown
	// (core.System.Close → ReleaseResources).
	dmaBufs [][]byte
}

// ReleaseResources returns the driver's DMA buffers to the shared
// pool. Only a teardown path that owns the whole machine may call it.
func (d *Driver) ReleaseResources() {
	for i, b := range d.dmaBufs {
		storage.PutBuf(b)
		d.dmaBufs[i] = nil
	}
	d.dmaBufs = nil
}

// Claim takes exclusive ownership of the device. It fails if any
// other driver holds it — device sharing is structurally impossible.
func Claim(cpu *sim.CPUSet, dev *device.SSD) (*Driver, error) {
	if err := dev.Claim("spdk"); err != nil {
		return nil, err
	}
	return &Driver{cpu: cpu, dev: dev, files: make(map[string]Region)}, nil
}

// CreateFile carves a fresh region of the raw device for name. There
// are no permissions and no metadata: anyone holding the driver can
// read every sector of the device.
func (d *Driver) CreateFile(name string, bytes int64) (Region, error) {
	sectors := (bytes + storage.SectorSize - 1) / storage.SectorSize
	if d.next+sectors > d.dev.Sectors() {
		return Region{}, fmt.Errorf("spdk: device full")
	}
	r := Region{Sector: d.next, Sectors: sectors}
	d.next += sectors
	d.files[name] = r
	return r, nil
}

// Lookup resolves a previously created region.
func (d *Driver) Lookup(name string) (Region, bool) {
	r, ok := d.files[name]
	return r, ok
}

// Queue is a per-thread queue pair + DMA buffer. The buffer models
// SPDK's pinned DMA memory: its size bounds one command, and the
// virtual clock charges a copy through it. Every SPDK transfer is
// sector-aligned, so on the host the device moves data straight
// to and from the caller's buffer.
type Queue struct {
	d   *Driver
	q   *nvme.QueuePair
	dma []byte
}

// NewQueue sets up a thread's I/O channel.
func (d *Driver) NewQueue(p *sim.Proc) (*Queue, error) {
	q, err := d.dev.CreateQueue(0, device.UserQueueDepth)
	if err != nil {
		return nil, err
	}
	p.Sleep(2 * sim.Microsecond) // queue mapping setup
	dma := storage.GetBuf(device.DMABufBytes)
	d.dmaBufs = append(d.dmaBufs, dma)
	return &Queue{d: d, q: q, dma: dma}, nil
}

// doRetries bounds resubmissions of commands that completed with a
// transient status (media error, timeout), as a real SPDK application
// would retry before reporting I/O failure.
const doRetries = 3

// do runs one raw command to completion, resubmitting it after a
// transient status.
func (q *Queue) do(p *sim.Proc, op nvme.Opcode, sector int64, buf []byte) error {
	e := nvme.SQE{
		Opcode:  op,
		SLBA:    sector,
		Sectors: int64(len(buf)) / storage.SectorSize,
		Buf:     buf,
		Span:    trace.SpanFrom(p),
	}
	for attempt := 0; ; attempt++ {
		c, err := q.q.Exec(p, q.d.cpu, e)
		if err != nil {
			return err
		}
		if c.Status.OK() {
			return nil
		}
		if c.Status.Transient() && attempt < doRetries {
			continue
		}
		return fmt.Errorf("spdk: %v at sector %d (queue %d): nvme status %v", op, sector, q.q.ID, c.Status)
	}
}

// ReadAt reads sector-aligned data from a region.
func (q *Queue) ReadAt(p *sim.Proc, r Region, buf []byte, off int64) (int, error) {
	if off%storage.SectorSize != 0 || int64(len(buf))%storage.SectorSize != 0 {
		return 0, fmt.Errorf("spdk: unaligned I/O")
	}
	if off+int64(len(buf)) > r.Bytes() {
		return 0, fmt.Errorf("spdk: read beyond region")
	}
	q.d.cpu.Compute(p, libOverhead)
	n := len(buf)
	if n > len(q.dma) {
		n = len(q.dma)
	}
	done := 0
	for done < len(buf) {
		chunk := len(buf) - done
		if chunk > n {
			chunk = n
		}
		if err := q.do(p, nvme.OpRead, r.Sector+(off+int64(done))/storage.SectorSize, buf[done:done+chunk]); err != nil {
			return done, err
		}
		q.d.cpu.Compute(p, device.CopyCost(chunk))
		done += chunk
	}
	return done, nil
}

// WriteAt writes sector-aligned data to a region.
func (q *Queue) WriteAt(p *sim.Proc, r Region, data []byte, off int64) (int, error) {
	if off%storage.SectorSize != 0 || int64(len(data))%storage.SectorSize != 0 {
		return 0, fmt.Errorf("spdk: unaligned I/O")
	}
	if off+int64(len(data)) > r.Bytes() {
		return 0, fmt.Errorf("spdk: write beyond region")
	}
	q.d.cpu.Compute(p, libOverhead)
	done := 0
	for done < len(data) {
		chunk := len(data) - done
		if chunk > len(q.dma) {
			chunk = len(q.dma)
		}
		q.d.cpu.Compute(p, device.CopyCost(chunk))
		if err := q.do(p, nvme.OpWrite, r.Sector+(off+int64(done))/storage.SectorSize, data[done:done+chunk]); err != nil {
			return done, err
		}
		done += chunk
	}
	return done, nil
}

// Flush issues an NVMe flush.
func (q *Queue) Flush(p *sim.Proc) error {
	c, err := q.q.Exec(p, q.d.cpu, nvme.SQE{Opcode: nvme.OpFlush, Span: trace.SpanFrom(p)})
	if err != nil {
		return err
	}
	if !c.Status.OK() {
		return fmt.Errorf("spdk: flush: %v", c.Status)
	}
	return nil
}
