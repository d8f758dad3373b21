// Package kernel models the operating system of the BypassD
// reproduction: processes with PASIDs and page tables, the VFS/ext4
// syscall layer with the per-layer costs measured in the paper's
// Table 1, the block layer and NVMe driver, the standard I/O paths
// (synchronous, libaio, io_uring with SQPOLL), and the BypassD kernel
// module (user queue pairs, DMA buffers, fmap(), revocation).
//
// A machine fronts one or more SSDs, each behind its own IOMMU (one
// per root complex) on which every process PASID is registered (paper
// §3.4: the file-table entries carry a DevID so a VBA minted for one
// device cannot reach another). Each device is a DevNode — the SSD,
// its IOMMU, its mounted file system, and the kernel queue that
// submits on it — and each node's device runs on its own event shard,
// merged deterministically by the simulator (DESIGN.md §14).
package kernel

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/iommu"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The software-stack cost model: Table 1's per-layer costs for the
// synchronous read path and the Table 5 fits for open() and fmap()
// documented in DESIGN.md §5.
const (
	Cores = 24 // host cores shared by every process and guest

	SyscallEnter sim.Time = 160 * sim.Nanosecond  // user -> kernel mode switch
	SyscallExit  sim.Time = 100 * sim.Nanosecond  // kernel -> user mode switch
	VFSCost      sim.Time = 2810 * sim.Nanosecond // VFS + ext4 data path (4 KiB)
	VFSPerPage   sim.Time = 15 * sim.Nanosecond   // extra per additional 4 KiB page
	BlockLayer   sim.Time = 540 * sim.Nanosecond  // bio assembly, scheduling
	DriverSubmit sim.Time = 220 * sim.Nanosecond  // NVMe driver submission

	OpenCost sim.Time = 1020 * sim.Nanosecond // in-kernel cost of open() (Table 5 row 1)

	FmapBase     sim.Time = 390 * sim.Nanosecond // warm fmap fixed cost
	FmapPerPMD   sim.Time = 31 * sim.Nanosecond  // per fragment pointer update (warm)
	FmapColdBase sim.Time = 700 * sim.Nanosecond // extent-tree population on cold fmap
	FmapPerPTE   sim.Time = 5 * sim.Nanosecond   // per file-table entry built (cold)

	UringVFSCost sim.Time = 2240 * sim.Nanosecond // kernel work per io_uring op (no switches)
	AioReap      sim.Time = 100 * sim.Nanosecond  // per-event io_getevents cost
	XRPBpfExec   sim.Time = 500 * sim.Nanosecond  // one BPF hook execution in the driver
)

// inoKey identifies an inode machine-wide. Inode numbers are
// per-device — two mounts can both hand out ino 12 — so every piece
// of kernel state keyed by inode (attachments, revocations, write
// locks) keys on (device, ino), never on the bare number.
type inoKey struct {
	dev uint8
	ino uint32
}

// ikey builds the machine-wide key for an inode.
func ikey(in *ext4.Inode) inoKey { return inoKey{dev: in.Dev, ino: in.Ino} }

// DevNode is one SSD of the machine's topology: the device, its
// mounted file system, and the kernel queue that submits on it. Each
// node's device runs on its own simulator event shard, so an
// N-device machine advances N independent event streams that the
// scheduler merges deterministically by the global (at, seq) key.
type DevNode struct {
	Index int // position in Machine.Nodes
	Shard int // sim event shard the node's device runs on
	// MMU is the node's translation agent. One IOMMU per node (one
	// per root complex, as on a real multi-socket machine) keeps the
	// whole ATS hot path — IOTLB, paging-structure cache, counters —
	// confined to the node's event shard, which is what lets shards
	// execute on separate host cores without locks. Every process
	// PASID is registered on every node's IOMMU (the kernel driver
	// programs each context table), so the cross-device DevID denial
	// (paper §3.4, Fig. 3) behaves exactly as with one shared agent.
	MMU *iommu.IOMMU
	Dev *device.SSD
	FS  *ext4.FS

	kq *kernelQueue
}

// Machine is a booted system: a device fleet with an IOMMU and a
// mounted file system per device.
type Machine struct {
	Sim *sim.Sim
	CPU *sim.CPUSet
	// Dev, MMU and FS alias node 0 — the historical single-device
	// surface. Every existing single-device caller keeps working
	// unchanged; multi-device callers go through Nodes.
	Dev *device.SSD
	MMU *iommu.IOMMU
	FS  *ext4.FS

	// Nodes is the device topology, in boot order. Node 0 runs on
	// event shard 0, so a one-node machine is byte-identical to the
	// pre-topology single-lane machine.
	Nodes []*DevNode

	// nodeByDev routes an inode (via Inode.Dev) back to its node.
	// Construction guarantees the mapping is injective: a duplicate
	// DevID is a boot error, because the FTE DevID check (paper §3.4,
	// Fig. 3) is a silent no-op between devices sharing an ID.
	nodeByDev map[uint8]*DevNode

	// Faults is the machine's fault plane, given at boot and shared
	// with the devices, IOMMUs and file systems. Nil is inert.
	Faults *faults.Injector

	// Metrics is the registry every layer of the machine resolves its
	// series from at boot. Nil is inert.
	Metrics *metrics.Registry

	// Trace is the machine's span tracer, registered at boot with the
	// boot config's trace collector. Nil is inert.
	Trace *trace.Tracer

	// mBlockRetries counts the transient device errors the block
	// layer absorbed by resubmitting.
	mBlockRetries *metrics.Counter

	nextPID   int
	nextPASID uint32

	// mu guards the machine-global control-plane maps below. The hot
	// data path never takes it; it exists for the short control-plane
	// window at the start of an armed traffic phase (per-tenant
	// library init: fmap, DMA-buffer registration) where processes on
	// different shards touch machine-wide bookkeeping concurrently.
	mu sync.Mutex

	// attachments tracks every fmap()ed (process, region) per inode
	// so the kernel can revoke direct access (paper §3.6).
	attachments map[inoKey][]*Attachment
	revoked     map[inoKey]bool

	// writeLocks models ext4's per-inode i_rwsem, held exclusively
	// during direct-I/O write submission. Concurrent writers to one
	// file serialize here — the bottleneck the paper observes for
	// KVell on YCSB A, which BypassD sidesteps by writing from
	// userspace (§6.5).
	writeLocks map[inoKey]*sim.Resource

	// dmaBufs tracks every pinned DMA buffer handed out on this
	// machine, recycled at teardown via ReleaseResources.
	dmaBufs [][]byte
}

// ReleaseResources returns the machine's recyclable structures — queue
// rings and pinned DMA buffers — to their shared pools. Only a
// teardown path that owns the machine (core.System.Close) may call it;
// the machine must not be used afterwards.
func (m *Machine) ReleaseResources() {
	for _, n := range m.Nodes {
		n.Dev.ReleaseResources()
		n.FS.ReleaseResources()
	}
	for i, b := range m.dmaBufs {
		storage.PutBuf(b)
		m.dmaBufs[i] = nil
	}
	m.dmaBufs = nil
}

// Attachment is one process's fmap()ed view of a file.
type Attachment struct {
	Proc     *Process
	Base     uint64
	Span     uint64 // bytes currently attached
	Reserved uint64 // virtual region reserved for in-place growth
	Writable bool
	Revoked  bool
	// Region marks a §5.1 extent-table mapping (Fmap under
	// Process.ExtentFmap) rather than page-table FTEs.
	Region bool

	key inoKey // owning inode, machine-wide
}

// Observers are the observation planes a machine is born with: every
// layer of the machine takes its fault injector, span tracer and
// metric series from them at boot. Nil fields are inert.
type Observers struct {
	// Faults is the machine's own injector (one per machine; its fire
	// tally goes to Metrics).
	Faults *faults.Injector
	// Trace registers the machine's span tracer.
	Trace *trace.Collector
	// Metrics is the registry the machine's series live in.
	Metrics *metrics.Registry
}

// NewMachineN boots a machine over a device fleet, one IOMMU per
// device (see DevNode.MMU). The fleet's DevIDs are made unique before
// any device exists (device.AssignDevIDs): presets hardcode their IDs,
// so a fleet of N copies of one preset would otherwise collide and
// turn the Fig. 3 cross-device VBA denial into a no-op. Device i > 0
// gets a fresh event shard; device 0 stays on shard 0, which keeps a
// one-device boot byte-identical to the pre-topology machine. sts
// supplies per-device images (a nil slice, or nil entries, format
// fresh stores). dcfgs is modified in place (DevID/Shard assignment).
// The machine and every layer in it are wired to obs before the first
// command.
func NewMachineN(s *sim.Sim, dcfgs []device.Config, sts []*storage.Store, obs Observers) (*Machine, error) {
	if len(sts) != 0 && len(sts) != len(dcfgs) {
		return nil, fmt.Errorf("kernel: %d stores for %d devices", len(sts), len(dcfgs))
	}
	if err := device.AssignDevIDs(dcfgs); err != nil {
		return nil, err
	}
	m := emptyMachine(s, obs)
	obs.Faults.Bind(obs.Metrics)
	m.Trace = obs.Trace.Tracer(dcfgs[0].Name, obs.Metrics)

	names := make(map[string]bool, len(dcfgs))
	for i := range dcfgs {
		dcfg := dcfgs[i]
		if names[dcfg.Name] {
			// Same-preset fleet: disambiguate resource, trace, and
			// error-message names. The first occurrence — and thus any
			// single-device boot — keeps its preset name.
			dcfg.Name = fmt.Sprintf("%s.%d", dcfg.Name, i)
		}
		names[dcfg.Name] = true
		dcfg.Shard = 0
		if i > 0 {
			dcfg.Shard = s.AddShard()
		}
		dcfgs[i] = dcfg

		var st *storage.Store
		if len(sts) > 0 {
			st = sts[i]
		}
		fresh := st == nil
		if fresh {
			st = storage.NewBytes(dcfg.CapacityBytes)
		}
		// One IOMMU per node (see DevNode.MMU): the node's ATS traffic
		// stays on its own event shard.
		mmu := iommu.New(iommu.DefaultConfig())
		mmu.SetObservers(m.Faults, m.Metrics)
		dev := device.NewWithStore(s, dcfg, st)
		dev.SetObservers(m.Faults, m.Metrics)
		dev.AttachIOMMU(mmu)

		if fresh {
			if err := ext4.Mkfs(&ext4.Direct{St: st}, ext4.DefaultOptions(dcfg.CapacityBytes)); err != nil {
				return nil, err
			}
		}
		// Boot-time mount goes through the untimed path; runtime I/O
		// then flows through the timed kernel BlockIO. The file
		// system's clock is the node's shard clock: in a parallel
		// drain a shard legitimately runs ahead of the global clock,
		// and mtimes must follow the I/O that dirtied them.
		fs, err := ext4.Mount(&ext4.Direct{St: st}, dcfg.DevID, s.ShardClock(dcfg.Shard))
		if err != nil {
			return nil, err
		}
		fs.SetObservers(m.Faults, m.Trace, m.Metrics)
		if err := m.addNode(mmu, dev, fs); err != nil {
			return nil, err
		}
	}
	// The CPU pool sizes one lane per event shard, so it must be
	// created after the device loop added every shard.
	m.CPU = s.NewCPUSet(Cores)
	return m, nil
}

// emptyMachine returns a machine with no nodes and no CPU pool yet,
// whose layers will take their fault injector and metric series from
// obs.
func emptyMachine(s *sim.Sim, obs Observers) *Machine {
	return &Machine{
		Sim:           s,
		nodeByDev:     make(map[uint8]*DevNode),
		attachments:   make(map[inoKey][]*Attachment),
		revoked:       make(map[inoKey]bool),
		writeLocks:    make(map[inoKey]*sim.Resource),
		nextPASID:     100,
		Faults:        obs.Faults,
		Metrics:       obs.Metrics,
		mBlockRetries: obs.Metrics.Counter("kernel_block_retries_total"),
	}
}

// addNode wires a booted device, its translation agent and its mounted
// file system into m as the next topology node, on the device's event
// shard: a kernel queue submits on the device, the file system's
// runtime I/O goes through the timed kernel block layer, and its
// journal commits and namespace changes serialize on locks resident
// on that shard. Node 0 also becomes m.Dev, m.MMU and m.FS.
func (m *Machine) addNode(mmu *iommu.IOMMU, dev *device.SSD, fs *ext4.FS) error {
	dcfg := dev.Config()
	if prev, dup := m.nodeByDev[dcfg.DevID]; dup {
		return fmt.Errorf("kernel: duplicate DevID %d (%s and %s)",
			dcfg.DevID, prev.Dev.Config().Name, dcfg.Name)
	}
	q, err := dev.CreateQueue(0, 4096)
	if err != nil {
		return err
	}
	n := &DevNode{Index: len(m.Nodes), Shard: dcfg.Shard, MMU: mmu, Dev: dev, FS: fs}
	n.kq = &kernelQueue{m: m, q: q, waiters: make(map[uint16]*waiter)}
	fs.SetBlockIO(&kernelBIO{m: m, n: n})
	fs.SetCommitLock(m.Sim.NewResourceOn(n.Shard, "jbd2-"+dcfg.Name, 1))
	fs.SetNamespaceLock(m.Sim.NewResourceOn(n.Shard, "ns-"+dcfg.Name, 1))
	m.nodeByDev[dcfg.DevID] = n
	m.Nodes = append(m.Nodes, n)
	if n.Index == 0 {
		m.Dev, m.MMU, m.FS = dev, mmu, fs
	}
	return nil
}

// node routes an inode to the topology node that owns it, via the
// device identity stamped on the inode at materialization.
func (m *Machine) node(in *ext4.Inode) *DevNode {
	if n, ok := m.nodeByDev[in.Dev]; ok {
		return n
	}
	// Inodes built outside a mount (tests) carry Dev 0; node 0 is the
	// only sensible home.
	return m.Nodes[0]
}

// writeLock returns the inode's i_rwsem equivalent. The lock lives on
// the inode's node shard: its holders and waiters are that node's
// writers, so accounting stays shard-local in a parallel run.
func (m *Machine) writeLock(in *ext4.Inode) *sim.Resource {
	k := ikey(in)
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.writeLocks[k]
	if !ok {
		l = m.Sim.NewResourceOn(m.node(in).Shard, fmt.Sprintf("i_rwsem-%d", k.ino), 1)
		m.writeLocks[k] = l
	}
	return l
}

// Drive runs one simulated phase on m to idle: it spawns setup as a
// proc named name, runs the simulation, and returns the first error
// setup returned or any proc passed to fail.
//
// setup runs coupled and may spawn the phase's traffic procs. When it
// returns nil on a multi-node machine, Drive arms the parallel drain
// for the rest of the run, which setup's procs must keep
// shard-confined (DESIGN.md §15), on up to workers host goroutines.
// The request is degraded to one worker — the drain still runs, shard
// after shard, so fault-free results stay invariant across worker
// counts — when a machine-wide observer that the parallel path cannot
// serve race-free is attached: an armed fault profile (shared rule
// state and PRNG) or a span tracer. The simulator is coupled again
// when Drive returns. fail is safe to call from concurrently draining
// shards.
func (m *Machine) Drive(name string, workers int, setup func(p *sim.Proc, fail func(error)) error) error {
	var mu sync.Mutex
	var first error
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	m.Sim.Spawn(name, func(p *sim.Proc) {
		if err := setup(p, fail); err != nil {
			fail(err)
			return
		}
		if len(m.Nodes) > 1 {
			if m.Faults.Active() || m.Trace != nil {
				workers = 1
			}
			m.Sim.ArmParallel(workers)
		}
	})
	m.Sim.Run()
	m.Sim.DisarmParallel()
	return first
}

// invalidateRange drops pasid's cached translations for [va, va+bytes)
// on every IOMMU that may hold them. Coupled phases fan out to all
// nodes (a PASID is registered machine-wide, and a queue on any node
// may have translated for it — the Fig. 3 denial path walks, and a
// real kernel must shoot down every agent). While the parallel drain
// is armed, traffic is device-affine by contract, so only the owning
// node's agent can hold entries and the shoot-down stays shard-local.
func (m *Machine) invalidateRange(owner *DevNode, pasid uint32, va uint64, bytes int64) {
	if m.Sim.ParallelArmed() {
		owner.MMU.InvalidateRange(pasid, va, bytes)
		return
	}
	for _, n := range m.Nodes {
		n.MMU.InvalidateRange(pasid, va, bytes)
	}
}

// waiter tracks one in-flight kernel command.
type waiter struct {
	done   bool
	status nvme.Status
}

// kernelQueue multiplexes kernel-initiated commands over one device
// queue pair. Threads waiting for completions sleep (interrupt model)
// rather than burning CPU.
type kernelQueue struct {
	m       *Machine
	q       *nvme.QueuePair
	waiters map[uint16]*waiter
	nextCID uint16

	// wFree recycles waiter boxes: the kernel issues one per command,
	// and a steady stream of block I/O would otherwise allocate one per
	// op forever. Single-goroutine, like everything under the scheduler.
	wFree []*waiter
}

// getWaiter hands out a reset waiter box for one in-flight command.
func (k *kernelQueue) getWaiter() *waiter {
	if n := len(k.wFree); n > 0 {
		w := k.wFree[n-1]
		k.wFree[n-1] = nil
		k.wFree = k.wFree[:n-1]
		*w = waiter{}
		return w
	}
	return &waiter{}
}

// putWaiter retires a waiter box once its command completed.
func (k *kernelQueue) putWaiter(w *waiter) { k.wFree = append(k.wFree, w) }

func (k *kernelQueue) allocCID() uint16 {
	for {
		k.nextCID++
		if _, busy := k.waiters[k.nextCID]; !busy {
			return k.nextCID
		}
	}
}

// drain moves posted completions into their waiters.
func (k *kernelQueue) drain() {
	for {
		c, ok := k.q.PopCQE()
		if !ok {
			return
		}
		if w := k.waiters[c.CID]; w != nil {
			w.done = true
			w.status = c.Status
		}
	}
}

// submitAndWait issues one command and blocks (interrupt-style) until
// it completes.
func (k *kernelQueue) submitAndWait(p *sim.Proc, e nvme.SQE) nvme.Status {
	cid := k.allocCID()
	e.CID = cid
	if e.Span == nil {
		// Pick up the span threaded through the proc by the layer that
		// owns the request (BIO, XRP, io_uring's poller); AIO sets
		// SQE.Span explicitly because it submits from a helper proc.
		e.Span = trace.SpanFrom(p)
	}
	w := k.getWaiter()
	k.waiters[cid] = w
	if err := k.q.Submit(e); err != nil {
		delete(k.waiters, cid)
		k.putWaiter(w)
		return nvme.StatusInternalError
	}
	for !w.done {
		k.drain()
		if w.done {
			break
		}
		k.q.CQReady.Wait(p)
	}
	delete(k.waiters, cid)
	e.Span.Complete(p.Now())
	st := w.status
	k.putWaiter(w)
	return st
}

// submitRetry is submitAndWait plus the block layer's bounded
// resubmission of transient failures (media error, timeout); every
// raw kernel submission path (block I/O, AIO, XRP) shares it so
// injected device faults degrade to retries, not EIO.
func (k *kernelQueue) submitRetry(p *sim.Proc, e nvme.SQE) nvme.Status {
	var st nvme.Status
	for attempt := 0; ; attempt++ {
		st = k.submitAndWait(p, e)
		if st.OK() || !st.Transient() || attempt >= blockRetries {
			return st
		}
		k.m.mBlockRetries.Inc()
	}
}

// kernelBIO is the timed ext4.BlockIO for one node: it charges the
// block layer and driver costs, then performs the transfer through
// the node's device.
type kernelBIO struct {
	m *Machine
	n *DevNode
}

var _ ext4.BlockIO = (*kernelBIO)(nil)

func (b *kernelBIO) charge(p *sim.Proc) {
	b.m.CPU.Compute(p, BlockLayer+DriverSubmit)
}

// blockRetries bounds the block layer's resubmissions of a command
// that failed with a transient status (media error, timeout) before
// the error surfaces as EIO, matching the kernel's nvme retry path.
const blockRetries = 3

func (b *kernelBIO) io(p *sim.Proc, op nvme.Opcode, blk, n int64, buf []byte) error {
	if p == nil {
		panic("kernel: timed block I/O without a proc")
	}
	b.charge(p)
	st := b.n.kq.submitRetry(p, nvme.SQE{
		Opcode:  op,
		SLBA:    blk * ext4.SectorsPerBlock,
		Sectors: n * ext4.SectorsPerBlock,
		Buf:     buf,
	})
	if !st.OK() {
		return fmt.Errorf("kernel: block %s at %d on %s queue %d: %v",
			op, blk, b.n.Dev.Config().Name, b.n.kq.q.ID, st)
	}
	return nil
}

func (b *kernelBIO) ReadBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	return b.io(p, nvme.OpRead, blk, n, buf[:n*ext4.BlockSize])
}

func (b *kernelBIO) WriteBlocks(p *sim.Proc, blk, n int64, buf []byte) error {
	return b.io(p, nvme.OpWrite, blk, n, buf[:n*ext4.BlockSize])
}

func (b *kernelBIO) ZeroBlocks(p *sim.Proc, blk, n int64) error {
	return b.io(p, nvme.OpWriteZeroes, blk, n, nil)
}

func (b *kernelBIO) Flush(p *sim.Proc) error {
	if p == nil {
		panic("kernel: timed flush without a proc")
	}
	b.m.CPU.Compute(p, DriverSubmit)
	if st := b.n.kq.submitAndWait(p, nvme.SQE{Opcode: nvme.OpFlush}); !st.OK() {
		return fmt.Errorf("kernel: flush: %v", st)
	}
	return nil
}
