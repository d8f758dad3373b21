package kernel

import (
	"errors"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/iommu"
	"repro/internal/sim"
)

// Virtual machines (paper §5.2): the host carves an SR-IOV virtual
// function out of the SSD (block-level isolation) and hands it to a
// guest, which boots its own kernel, file system, and IOMMU context
// over the VF. Guest processes then use the BypassD interface exactly
// as on bare metal; the IOMMU performs a *nested* translation (guest
// VBA → guest LBA → host LBA), modelled as extra walk latency plus
// the VF's window shift at the device.
//
// As in the paper, file sharing across VMs is impossible: isolation
// is at the block level, below the file system.

// NewGuestMachine boots a guest over vf. The guest shares the host's
// CPU cores; nested is the extra VBA translation cost of the
// second-level walk (0 for the paper's ~550 ns single-level model; a
// few hundred ns is realistic for nested paging).
func NewGuestMachine(s *sim.Sim, host *Machine, vf *device.SSD, nested sim.Time) (*Machine, error) {
	// Guests count in the host's registry.
	m := emptyMachine(s, Observers{Metrics: host.Metrics})
	m.CPU = host.CPU // guests timeshare the host's cores

	icfg := iommu.DefaultConfig()
	icfg.WalkLatency += nested
	icfg.MinTranslation += nested
	mmu := iommu.New(icfg)
	mmu.SetObservers(nil, m.Metrics)
	vf.AttachIOMMU(mmu)

	// Boot the guest file system inside the VF window, formatting on
	// first boot. The guest's clock is its VF's shard clock (the VF
	// shares its parent device's event shard).
	clock := s.ShardClock(vf.Config().Shard)
	boot := &ext4.Direct{St: vf.WindowedStore()}
	fs, err := ext4.Mount(nil, boot, vf.Config().DevID, clock)
	if err != nil {
		if !errors.Is(err, ext4.ErrBadFS) {
			return nil, err
		}
		if err := ext4.Mkfs(boot, ext4.DefaultOptions(vf.Config().CapacityBytes, vf.Config().DevID)); err != nil {
			return nil, err
		}
		if fs, err = ext4.Mount(nil, boot, vf.Config().DevID, clock); err != nil {
			return nil, err
		}
	}
	fs.SetObservers(nil, nil, m.Metrics)
	// The guest is a one-node topology over its VF; guest procs share
	// the host's event shard (the VF is carved from the host device).
	if err := m.addNode(mmu, vf, fs); err != nil {
		return nil, err
	}
	return m, nil
}
