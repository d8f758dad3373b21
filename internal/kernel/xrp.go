package kernel

import (
	"fmt"

	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

// XRP baseline (Zhong et al., OSDI '22): a BPF function installed at
// the NVMe driver's completion hook parses each returned block and
// resubmits the next I/O of a chain directly from the driver, so a
// multi-hop traversal (B-tree descent) pays the syscall and
// VFS/block-layer costs only once. BypassD compares against it in
// Figs. 13-15.

// ChainFn inspects the buffer returned by step i and names the next
// read, or reports completion. Offsets are file-relative bytes and
// must be sector aligned (XRP only supports fixed on-disk layouts).
type ChainFn func(step int, buf []byte) (nextOff, nextLen int64, done bool)

// XRPChain performs a chained read: the first I/O traverses the full
// kernel path; each subsequent I/O costs one BPF execution plus a
// driver resubmission (no VFS, no block layer, no mode switches).
// buf must hold the largest step; each step's data is left in
// buf[:len] when fn runs. It returns the number of I/Os issued.
func (pr *Process) XRPChain(p *sim.Proc, fd int, off, length int64, buf []byte, fn ChainFn) (int, error) {
	f, err := pr.fd(fd)
	if err != nil {
		return 0, err
	}
	m := pr.M
	pr.enter(p)
	defer pr.exit(p)

	// First submission: full stack.
	pr.vfsCharge(p, int(length))
	m.CPU.Compute(p, BlockLayer+DriverSubmit)

	steps := 0
	// Chain steps consume segs synchronously before the next resolve,
	// so one scratch buffer serves the whole traversal.
	var segs []sectorSeg
	for {
		if off%storage.SectorSize != 0 || length%storage.SectorSize != 0 || length <= 0 {
			return steps, fmt.Errorf("kernel: xrp requires sector-aligned chain steps")
		}
		if off+length > f.Ino.Size {
			return steps, fmt.Errorf("kernel: xrp read beyond EOF (off=%d len=%d size=%d)", off, length, f.Ino.Size)
		}
		segs, err = resolveSectorsInto(segs, f.Ino, off, length)
		if err != nil {
			return steps, err
		}
		bufOff := int64(0)
		for _, s := range segs {
			n := s.Sectors * storage.SectorSize
			st := pr.node.kq.submitRetry(p, nvme.SQE{
				Opcode:  nvme.OpRead,
				SLBA:    s.Sector,
				Sectors: s.Sectors,
				Buf:     buf[bufOff : bufOff+n],
			})
			if !st.OK() {
				return steps, fmt.Errorf("kernel: xrp read at sector %d on %s: %v",
					s.Sector, pr.node.Dev.Config().Name, st)
			}
			bufOff += n
		}
		steps++

		nextOff, nextLen, done := fn(steps-1, buf[:length])
		if done {
			return steps, nil
		}
		// Resubmission from the driver completion hook.
		m.CPU.Compute(p, XRPBpfExec+DriverSubmit)
		off, length = nextOff, nextLen
	}
}
