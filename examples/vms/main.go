// VMs (paper §5.2): the host carves SR-IOV-style virtual functions
// out of the SSD and boots two guest machines over them. Each guest
// runs its own kernel, ext4, and IOMMU context, and its processes use
// the BypassD interface exactly as on bare metal — the IOMMU performs
// a nested translation and the device enforces the VF's block window.
package main

import (
	"fmt"
	"log"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/userlib"
)

func main() {
	s := sim.New()
	host, err := kernel.NewMachineN(s, []device.Config{device.OptaneP5800X(1 << 30)}, nil, kernel.Observers{})
	if err != nil {
		log.Fatal(err)
	}

	// Carve two 192 MiB virtual functions and boot guests on them.
	guests := make([]*kernel.Machine, 2)
	for i := range guests {
		vf, err := device.Carve(s, host.Dev, fmt.Sprintf("vf%d", i+1), uint8(10+i),
			int64(512+192*i)<<20/512, (192<<20)/512)
		if err != nil {
			log.Fatal(err)
		}
		guests[i], err = kernel.NewGuestMachine(s, host, vf)
		if err != nil {
			log.Fatal(err)
		}
	}

	for i, g := range guests {
		i, g := i, g
		s.Spawn(fmt.Sprintf("guest%d", i+1), func(p *sim.Proc) {
			pr := g.NewProcess(ext4.Root)
			fd, err := pr.Create(p, "/vm.dat", 0o644)
			if err != nil {
				log.Fatal(err)
			}
			if err := pr.Fallocate(p, fd, 8<<20); err != nil {
				log.Fatal(err)
			}
			_ = pr.Fsync(p, fd)
			_ = pr.Close(p, fd)

			lib := userlib.New(g.NewProcess(ext4.Root), userlib.Config{})
			th, err := lib.NewThread(p)
			if err != nil {
				log.Fatal(err)
			}
			lfd, err := lib.Open(p, "/vm.dat", true)
			if err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, 4096)
			for j := range buf {
				buf[j] = byte(i + 1)
			}
			if _, err := th.Pwrite(p, lfd, buf, 0); err != nil {
				log.Fatal(err)
			}
			start := p.Now()
			const ops = 200
			for n := 0; n < ops; n++ {
				if _, err := th.Pread(p, lfd, buf, int64(n%2048)*4096); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("guest %d: 4KiB direct read %v per op (bare metal: 5.16µs + nested walk)\n",
				i+1, (p.Now()-start)/ops)
		})
	}
	s.Run()

	fmt.Println("\nboth guests ran the userspace fast path inside their VF windows;")
	fmt.Println("block-level isolation means no file sharing across VMs (paper §5.2).")
}
