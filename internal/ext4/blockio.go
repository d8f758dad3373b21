package ext4

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/storage"
)

// BlockIO is the file system's view of the block device. The kernel
// supplies an implementation that charges the block-layer and driver
// costs of Table 1; Direct is an untimed implementation over raw
// storage used for mkfs, image building, and recovery tooling.
//
// All addresses are in file-system blocks (4 KiB).
type BlockIO interface {
	ReadBlocks(p *sim.Proc, blk int64, n int64, buf []byte) error
	WriteBlocks(p *sim.Proc, blk int64, n int64, buf []byte) error
	ZeroBlocks(p *sim.Proc, blk int64, n int64) error
	Flush(p *sim.Proc) error
}

// Direct is a zero-latency BlockIO over a raw store or a windowed
// view of one (a virtual function's medium). The proc argument may
// be nil.
type Direct struct {
	St storage.SectorIO
}

var _ BlockIO = (*Direct)(nil)

// ReadBlocks implements BlockIO.
func (d *Direct) ReadBlocks(_ *sim.Proc, blk, n int64, buf []byte) error {
	return d.St.ReadSectors(blk*SectorsPerBlock, n*SectorsPerBlock, buf)
}

// WriteBlocks implements BlockIO.
func (d *Direct) WriteBlocks(_ *sim.Proc, blk, n int64, buf []byte) error {
	return d.St.WriteSectors(blk*SectorsPerBlock, n*SectorsPerBlock, buf)
}

// ZeroBlocks implements BlockIO.
func (d *Direct) ZeroBlocks(_ *sim.Proc, blk, n int64) error {
	return d.St.Zero(blk*SectorsPerBlock, n*SectorsPerBlock)
}

// Flush implements BlockIO.
func (d *Direct) Flush(_ *sim.Proc) error { return nil }

// ErrCrashed is returned by writes a simulated crash cut off.
var ErrCrashed = errors.New("ext4: simulated crash")
