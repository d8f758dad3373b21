package kernel

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/nvme"
	"repro/internal/pagetable"
	"repro/internal/sim"
)

// Process is a simulated OS process: credentials, a PASID-bound page
// table, and a descriptor table. Threads of the process are sim.Procs
// that invoke syscalls with the process as context.
type Process struct {
	M     *Machine
	PID   int
	PASID uint32
	Cred  ext4.Cred
	Table *pagetable.Table
	// Root confines the process's file-system view to a subtree
	// (mount namespace, paper §5.2); empty = host namespace.
	Root string
	// QoS is the process's tenant service class. The BypassD kernel
	// module stamps it onto every user queue the process registers
	// (paper §3.7 delegates inter-process fairness to NVMe queue
	// arbitration; the class is what a QoS-aware arbiter consults).
	// Set it before the first CreateUserQueue; the zero value is the
	// default class.
	QoS nvme.QoS
	// ExtentFmap makes Fmap map files through the IOMMU's extent-table
	// walker (paper §5.1 alternate data structure) instead of
	// page-table FTEs. Set it before the first Fmap; mappings already
	// made keep their structure.
	ExtentFmap bool

	// node is the device the process fronts: its file-system view,
	// kernel submission queue, and user queues all live there. Cross-
	// device access from a VBA is what the IOMMU's DevID check denies.
	node *DevNode

	nextVBA uint64
	fds     map[int]*FD
	nextFD  int
}

// FD is an open file description.
type FD struct {
	Ino      *ext4.Inode
	Path     string
	Writable bool
	Offset   int64

	// Bypass is non-nil while the file is fmap()ed for BypassD-
	// interface access.
	Bypass *Attachment

	// timesDirty defers timestamp updates to close/fsync for
	// BypassD-interface files (paper §4.4).
	timesDirty bool
}

// NewProcess creates a process on device node 0 and registers its
// address space with the IOMMU.
func (m *Machine) NewProcess(cred ext4.Cred) *Process {
	return m.NewProcessOn(cred, 0)
}

// NewProcessOn creates a process bound to topology node devIdx: its
// file operations resolve on that node's file system and its I/O
// submits on that node's queues. Tenant placement (striping across a
// fleet) picks the node here; everything downstream routes through it.
func (m *Machine) NewProcessOn(cred ext4.Cred, devIdx int) *Process {
	if devIdx < 0 || devIdx >= len(m.Nodes) {
		panic(fmt.Sprintf("kernel: NewProcessOn(%d) on a %d-node machine", devIdx, len(m.Nodes)))
	}
	m.nextPID++
	m.nextPASID++
	pr := &Process{
		M:       m,
		PID:     m.nextPID,
		PASID:   m.nextPASID,
		Cred:    cred,
		Table:   pagetable.New(),
		node:    m.Nodes[devIdx],
		nextVBA: 0x5000_0000_0000, // fmap region base, PMD aligned
		fds:     make(map[int]*FD),
		nextFD:  3,
	}
	// The driver programs every node's context table: a queue on any
	// node can then walk this process's page table, which is what the
	// cross-device DevID denial (paper §3.4) exercises. Registration
	// is boot/setup-plane work; the per-node IOMMU caches themselves
	// fill only from each node's own shard.
	for _, n := range m.Nodes {
		n.MMU.RegisterPASID(pr.PASID, pr.Table)
	}
	return pr
}

// Dev returns the SSD of the node the process is bound to.
func (pr *Process) Dev() *device.SSD { return pr.node.Dev }

// Node reports the topology index the process is bound to.
func (pr *Process) Node() int { return pr.node.Index }

// enter/exit charge the privilege-mode switches around a syscall.
func (pr *Process) enter(p *sim.Proc) { pr.M.CPU.Compute(p, SyscallEnter) }
func (pr *Process) exit(p *sim.Proc)  { pr.M.CPU.Compute(p, SyscallExit) }

// allocVBA reserves a PMD-aligned virtual region of span bytes.
func (pr *Process) allocVBA(span uint64) uint64 {
	base := pr.nextVBA
	span = (span + pagetable.PMDSpan - 1) &^ uint64(pagetable.PMDSpan-1)
	if span == 0 {
		span = pagetable.PMDSpan
	}
	pr.nextVBA += span
	return base
}

// fd resolves a descriptor number.
func (pr *Process) fd(fd int) (*FD, error) {
	f, ok := pr.fds[fd]
	if !ok {
		return nil, fmt.Errorf("kernel: bad file descriptor %d", fd)
	}
	return f, nil
}

// FDInfo exposes the descriptor for UserLib (which shims the libc
// layer and needs the inode's size and the mapping base).
func (pr *Process) FDInfo(fd int) (*FD, error) { return pr.fd(fd) }

// Open opens path through the kernel interface. If another process
// holds the file fmap()ed for direct access, that access is revoked
// (paper §4.5.2: no concurrent BypassD- and kernel-interface access).
func (pr *Process) Open(p *sim.Proc, path string, write bool) (int, error) {
	path, err := pr.resolve(path)
	if err != nil {
		return 0, err
	}
	pr.enter(p)
	defer pr.exit(p)
	fd, _, err := pr.openLocked(p, path, write, false)
	return fd, err
}

// Create creates (or truncates) a file and opens it kernel-interface.
func (pr *Process) Create(p *sim.Proc, path string, perm uint16) (int, error) {
	path, err := pr.resolve(path)
	if err != nil {
		return 0, err
	}
	pr.enter(p)
	defer pr.exit(p)
	m := pr.M
	m.CPU.Compute(p, OpenCost)
	in, err := pr.node.FS.Create(p, path, perm, pr.Cred)
	if err != nil {
		if err == ext4.ErrExist {
			fd, _, err2 := pr.openLocked(p, path, true, true)
			if err2 != nil {
				return 0, err2
			}
			f, _ := pr.fd(fd)
			if terr := pr.node.FS.Truncate(p, f.Ino, 0); terr != nil {
				return 0, terr
			}
			return fd, nil
		}
		return 0, err
	}
	in.KernelOpens++
	return pr.installFD(in, path, true), nil
}

// openLocked is the shared open path; charged is true when the caller
// already charged OpenCost.
func (pr *Process) openLocked(p *sim.Proc, path string, write, charged bool) (int, *ext4.Inode, error) {
	m := pr.M
	if !charged {
		m.CPU.Compute(p, OpenCost)
	}
	in, err := pr.node.FS.Lookup(p, path, pr.Cred)
	if err != nil {
		return 0, nil, err
	}
	if in.IsDir() {
		return 0, nil, ext4.ErrIsDir
	}
	if err := pr.node.FS.Access(in, pr.Cred, write); err != nil {
		return 0, nil, err
	}
	in.KernelOpens++
	// Kernel-interface access while others hold the file via the
	// BypassD interface: revoke their direct access.
	if in.BypassOpens > 0 {
		m.Revoke(in)
	}
	return pr.installFD(in, path, write), in, nil
}

func (pr *Process) installFD(in *ext4.Inode, path string, write bool) int {
	fd := pr.nextFD
	pr.nextFD++
	pr.fds[fd] = &FD{Ino: in, Path: path, Writable: write}
	return fd
}

// Close releases a descriptor, detaching any BypassD mapping and
// applying deferred timestamp updates (paper §4.4: timestamps update
// at close/fsync).
func (pr *Process) Close(p *sim.Proc, fd int) error {
	f, err := pr.fd(fd)
	if err != nil {
		return err
	}
	pr.enter(p)
	defer pr.exit(p)
	m := pr.M
	if f.Bypass != nil {
		m.funmap(f.Bypass)
		f.Bypass = nil
		f.Ino.BypassOpens--
	} else {
		f.Ino.KernelOpens--
	}
	if f.timesDirty {
		f.Ino.Mtime = p.Now()
		// Commit lazily: the dirty inode flushes at the next sync
		// point, as mmap()ed files do.
	}
	if f.Ino.BypassOpens == 0 && f.Ino.KernelOpens == 0 {
		m.mu.Lock()
		delete(m.revoked, ikey(f.Ino))
		m.mu.Unlock()
	}
	delete(pr.fds, fd)
	return nil
}

// Unlink removes a file.
func (pr *Process) Unlink(p *sim.Proc, path string) error {
	path, err := pr.resolve(path)
	if err != nil {
		return err
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.M.CPU.Compute(p, OpenCost)
	return pr.node.FS.Unlink(p, path, pr.Cred)
}

// Mkdir creates a directory.
func (pr *Process) Mkdir(p *sim.Proc, path string, perm uint16) error {
	path, err := pr.resolve(path)
	if err != nil {
		return err
	}
	pr.enter(p)
	defer pr.exit(p)
	pr.M.CPU.Compute(p, OpenCost)
	_, err = pr.node.FS.Mkdir(p, path, perm, pr.Cred)
	return err
}
