// Package device implements the simulated low-latency NVMe SSD.
//
// The model is calibrated to the Intel Optane P5800X used in the
// paper: ~4.0 µs device time for a 4 KiB read (Table 1), ~7 GB/s
// streaming reads, and ~1.5 M IOPS of internal parallelism (Fig. 9's
// saturation point). Commands are fetched from submission queues by a
// pluggable arbiter (flat round-robin by default — the device-side
// scheduling the paper relies on for fairness once the kernel I/O
// scheduler is bypassed (Fig. 11) — with WRR and strict-priority +
// token-bucket variants for the tenancy plane, see arbiter.go) and
// served by a bounded pool of internal channels.
//
// BypassD extension: a submission entry may carry a VBA, in which case
// the device issues an ATS translation to the attached IOMMU before
// (reads) or concurrently with (writes) the media access (paper §4.3).
package device

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/iommu"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Config holds the device performance model.
type Config struct {
	Name          string
	DevID         uint8
	CapacityBytes int64

	// Shard is the simulation event shard the device's procs run on
	// (sim.AddShard). Topology boot assigns one shard per device so
	// each device's command stream lives in its own lane; 0 — shard 0 —
	// is the single-device default.
	Shard int

	Channels int // internal parallelism (concurrent media ops)

	ReadBase  sim.Time // fixed portion of a read's media time
	WriteBase sim.Time // fixed portion of a write's media time
	ReadBW    float64  // streaming read bandwidth, bytes/ns
	WriteBW   float64  // streaming write bandwidth, bytes/ns

	FlushLatency sim.Time // cache flush time once writes drain
	MaxQueues    int      // NVMe allows 64K; bound for sanity

	// SerializeWriteTranslation disables the write-path overlap of
	// VBA translation and data transfer (ablation for paper §4.3).
	SerializeWriteTranslation bool
}

// OptaneP5800X returns the calibration used throughout the
// reproduction: 4 KiB read = 3435 + 4096/7.0 ≈ 4020 ns (Table 1);
// six channels ≈ 1.49 M IOPS.
func OptaneP5800X(capacity int64) Config {
	return Config{
		Name:          "optane-p5800x",
		DevID:         1,
		CapacityBytes: capacity,
		Channels:      6,
		ReadBase:      3435 * sim.Nanosecond,
		WriteBase:     3800 * sim.Nanosecond,
		ReadBW:        7.0, // bytes per nanosecond = GB/s
		WriteBW:       6.2,
		FlushLatency:  5 * sim.Microsecond,
		MaxQueues:     65536,
	}
}

// ZSSD models a Samsung Z-SSD-class low-latency NAND device (paper
// §2's second device class): ~12 µs 4 KiB reads, DRAM-buffered
// writes.
func ZSSD(capacity int64) Config {
	return Config{
		Name:          "z-ssd",
		DevID:         2,
		CapacityBytes: capacity,
		Channels:      8,
		ReadBase:      11 * sim.Microsecond,
		WriteBase:     9 * sim.Microsecond,
		ReadBW:        3.2,
		WriteBW:       3.0,
		FlushLatency:  20 * sim.Microsecond,
		MaxQueues:     65536,
	}
}

// TLCFlash models a mainstream TLC NVMe SSD: ~80 µs reads — the
// regime where kernel software costs were negligible (paper §1/§2's
// motivation runs backwards on slow devices).
func TLCFlash(capacity int64) Config {
	return Config{
		Name:          "tlc-nvme",
		DevID:         3,
		CapacityBytes: capacity,
		Channels:      16,
		ReadBase:      78 * sim.Microsecond,
		WriteBase:     18 * sim.Microsecond, // SLC-cache absorbed
		ReadBW:        3.5,
		WriteBW:       2.8,
		FlushLatency:  100 * sim.Microsecond,
		MaxQueues:     65536,
	}
}

// command is an admitted SQE with its originating queue.
type command struct {
	sqe nvme.SQE
	q   *nvme.QueuePair
}

// Stats aggregates device activity.
type Stats struct {
	Reads, Writes, Flushes int64
	BytesRead, BytesWrite  int64
	Faults                 int64 // commands completed with error status
}

// SSD is the simulated device.
type SSD struct {
	sim   *sim.Sim
	cfg   Config
	store *storage.Store
	mmu   *iommu.IOMMU // nil when no VBA support is modelled

	queues   []*nvme.QueuePair
	arrival  *sim.Cond // doorbell for all queues
	arb      Arbiter   // queue arbitration policy (FlatRR by default)
	arbRR    *FlatRR   // devirtualized fast path when arb is the default
	wakeAt   sim.Time  // pending token-refill re-arbitration, 0 = none
	channels *sim.Resource

	writesInFlight int
	writesDrained  *sim.Cond

	stats   Stats
	opsByQ  map[int]int64
	stopped bool
	claimer string

	// segFree recycles per-command segment buffers between serve
	// invocations so the resolve→moveData path allocates nothing in
	// steady state. Safe without locks: the simulation runs exactly
	// one goroutine at a time.
	segFree [][]iommu.Segment

	// Per-command spawn path, precomputed once so dispatch allocates
	// nothing in steady state: the channel-proc name (the old
	// cfg.Name+"-chan" concat allocated per command), a shared serve
	// trampoline for sim.SpawnArg (no per-command closure), and a free
	// list of command boxes handed through the trampoline's arg.
	chanName string
	serveFn  func(p *sim.Proc, arg any)
	cmdFree  []*command

	// window offsets every media sector: non-zero for an SR-IOV-style
	// virtual function carved out of a parent device (§5.2).
	window int64

	// inj is the machine's fault plane (nil = inert). Site names are
	// precomputed so the served path stays allocation-free.
	inj         *faults.Injector
	siteMedia   string
	siteTimeout string
	siteDelay   string

	// reg is the machine's metrics registry; the handles below are
	// resolved from it once, at boot (nil, inert, without one).
	reg                       *metrics.Registry
	mReads, mWrites, mFlushes *metrics.Counter
	mBytesRead, mBytesWrite   *metrics.Counter
	mErrors                   *metrics.Counter
	mQueues                   *metrics.Gauge
}

// New creates a device backed by a fresh sparse store and starts its
// dispatcher.
func New(s *sim.Sim, cfg Config) *SSD {
	return NewWithStore(s, cfg, storage.NewBytes(cfg.CapacityBytes))
}

// NewWithStore creates a device over an existing store (used to boot
// prebuilt images).
func NewWithStore(s *sim.Sim, cfg Config, st *storage.Store) *SSD {
	if cfg.Channels <= 0 {
		panic("device: channel count must be positive")
	}
	d := &SSD{
		sim:           s,
		cfg:           cfg,
		store:         st,
		arrival:       s.NewCond(),
		arb:           NewFlatRR(),
		channels:      s.NewResourceOn(cfg.Shard, cfg.Name+"-channels", cfg.Channels),
		writesDrained: s.NewCond(),
		opsByQ:        make(map[int]int64),
	}
	d.initSites()
	d.initHotPath()
	// The dispatch proc anchors the device's shard: serve procs spawn
	// from it (inheriting the shard) and doorbell wakeups route to it.
	s.SpawnOn(cfg.Shard, cfg.Name+"-dispatch", d.dispatch)
	return d
}

// initHotPath precomputes the per-command spawn machinery and the
// devirtualized arbiter pointer.
func (d *SSD) initHotPath() {
	d.chanName = d.cfg.Name + "-chan"
	d.serveFn = func(p *sim.Proc, arg any) {
		cb := arg.(*command)
		c := *cb
		d.putCmd(cb) // box is free for the next admission; serve owns a copy
		d.serve(p, c)
	}
	d.arbRR, _ = d.arb.(*FlatRR)
}

// getCmd hands out a command box for one admission.
func (d *SSD) getCmd() *command {
	if n := len(d.cmdFree); n > 0 {
		c := d.cmdFree[n-1]
		d.cmdFree[n-1] = nil
		d.cmdFree = d.cmdFree[:n-1]
		return c
	}
	return &command{}
}

// putCmd retires a command box, dropping its Buf/Span references.
func (d *SSD) putCmd(c *command) {
	*c = command{}
	d.cmdFree = append(d.cmdFree, c)
}

// initSites precomputes the device's fault-site names.
func (d *SSD) initSites() {
	d.siteMedia = faults.DeviceSite(d.cfg.Name, faults.KindMedia)
	d.siteTimeout = faults.DeviceSite(d.cfg.Name, faults.KindTimeout)
	d.siteDelay = faults.DeviceSite(d.cfg.Name, faults.KindDelay)
}

// SetObservers attaches the machine's fault plane and resolves the
// device's metric series from reg (nil: inert handles). The machine
// calls it at boot, before the device serves any command; virtual
// functions carved afterwards inherit both.
func (d *SSD) SetObservers(inj *faults.Injector, reg *metrics.Registry) {
	d.inj, d.reg = inj, reg
	d.mReads = reg.Counter("device_ops_total", "dev", d.cfg.Name, "op", "read")
	d.mWrites = reg.Counter("device_ops_total", "dev", d.cfg.Name, "op", "write")
	d.mFlushes = reg.Counter("device_ops_total", "dev", d.cfg.Name, "op", "flush")
	d.mBytesRead = reg.Counter("device_bytes_total", "dev", d.cfg.Name, "dir", "read")
	d.mBytesWrite = reg.Counter("device_bytes_total", "dev", d.cfg.Name, "dir", "write")
	d.mErrors = reg.Counter("device_errors_total", "dev", d.cfg.Name)
	d.mQueues = reg.Gauge("device_queues", "dev", d.cfg.Name)
}

// Carve creates an SR-IOV-style virtual function: an SSD exposing the
// sector window [baseSector, baseSector+sectors) of parent as an
// isolated device with its own queues and DevID, while sharing the
// parent's media channels (contention is real) and backing store.
// Block-level isolation between VFs is exactly the paper's §5.2 model
// — file sharing across VMs is impossible by construction.
func Carve(s *sim.Sim, parent *SSD, name string, devID uint8, baseSector, sectors int64) (*SSD, error) {
	if baseSector < 0 || sectors <= 0 || baseSector+sectors > parent.Sectors() {
		return nil, fmt.Errorf("device: VF window [%d,+%d) outside parent %d", baseSector, sectors, parent.Sectors())
	}
	cfg := parent.cfg
	cfg.Name = name
	cfg.DevID = devID
	cfg.CapacityBytes = sectors * storage.SectorSize
	vf := &SSD{
		sim:           s,
		cfg:           cfg,
		store:         parent.store,
		mmu:           parent.mmu,
		arrival:       s.NewCond(),
		arb:           NewFlatRR(),
		channels:      parent.channels, // VFs contend for the same media
		writesDrained: s.NewCond(),
		opsByQ:        make(map[int]int64),
		window:        parent.window + baseSector,
	}
	vf.initSites()
	vf.SetObservers(parent.inj, parent.reg) // VFs share the machine's observers
	vf.initHotPath()
	s.SpawnOn(cfg.Shard, cfg.Name+"-dispatch", vf.dispatch)
	return vf, nil
}

// WindowedStore returns the sector space this device actually
// addresses — the parent store for a physical function, a bounded
// view for a virtual function. Boot-time tooling (mkfs, mount) uses
// it so a guest's file system lands inside its window.
func (d *SSD) WindowedStore() storage.SectorIO {
	if d.window == 0 && d.Sectors() == d.store.Sectors() {
		return d.store
	}
	v, err := storage.NewView(d.store, d.window, d.Sectors())
	if err != nil {
		panic(err) // Carve validated the window
	}
	return v
}

// AttachIOMMU wires the device's ATS port to an IOMMU, enabling VBA
// commands.
func (d *SSD) AttachIOMMU(u *iommu.IOMMU) { d.mmu = u }

// IOMMU returns the attached translation agent, or nil.
func (d *SSD) IOMMU() *iommu.IOMMU { return d.mmu }

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// Store exposes the backing medium (for image building and tests).
func (d *SSD) Store() *storage.Store { return d.store }

// Stats returns a copy of the activity counters.
func (d *SSD) Stats() Stats { return d.stats }

// OpsOnQueue reports commands served from queue id (fairness tests).
func (d *SSD) OpsOnQueue(id int) int64 { return d.opsByQ[id] }

// Sectors reports the device capacity in sectors.
func (d *SSD) Sectors() int64 { return d.cfg.CapacityBytes / storage.SectorSize }

// Claim binds the device exclusively to one userspace driver. A
// second claim fails — this is why SPDK cannot share the device
// between processes (paper §2, Fig. 10).
func (d *SSD) Claim(owner string) error {
	if d.claimer != "" {
		return fmt.Errorf("device %s: already claimed by %s", d.cfg.Name, d.claimer)
	}
	d.claimer = owner
	return nil
}

// Release drops an exclusive claim.
func (d *SSD) Release(owner string) {
	if d.claimer == owner {
		d.claimer = ""
	}
}

// CreateQueue registers a new queue pair with the device. The PASID
// is bound to the queue at creation time, as the BypassD kernel driver
// does, so the IOMMU knows whose page tables to walk (paper §3.3).
func (d *SSD) CreateQueue(pasid uint32, depth int) (*nvme.QueuePair, error) {
	if len(d.queues) >= d.cfg.MaxQueues {
		return nil, fmt.Errorf("device %s: queue limit reached", d.cfg.Name)
	}
	q := nvme.NewQueuePair(d.sim, len(d.queues)+1, pasid, depth)
	// All queues ring the shared arrival doorbell so the dispatcher
	// wakes regardless of which queue was written.
	q.Doorbell = d.arrival
	d.queues = append(d.queues, q)
	d.mQueues.Add(1)
	return q, nil
}

// DestroyQueue closes a queue pair.
func (d *SSD) DestroyQueue(q *nvme.QueuePair) {
	for i, x := range d.queues {
		if x == q {
			d.queues = append(d.queues[:i], d.queues[i+1:]...)
			d.mQueues.Add(-1)
			break
		}
	}
	q.Close()
}

// SetArbiter installs a queue arbitration policy. Call it at machine
// setup, before traffic: swapping arbiters mid-flight is legal but
// the new policy starts with fresh state (cursor, credits, buckets).
func (d *SSD) SetArbiter(a Arbiter) {
	if a == nil {
		a = NewFlatRR()
	}
	d.arb = a
	d.arbRR, _ = a.(*FlatRR)
	d.arrival.Broadcast() // re-arbitrate under the new policy
}

// ArbiterName reports the installed arbitration policy.
func (d *SSD) ArbiterName() string { return d.arb.Name() }

// arbitrate pops the next command the arbiter grants, reporting
// ok=false when nothing is eligible (and the refill instant to retry
// at, if the arbiter is holding back a rate-limited queue).
func (d *SSD) arbitrate() (command, bool, sim.Time) {
	for {
		var (
			idx     int
			ok      bool
			retryAt sim.Time
		)
		if d.arbRR != nil {
			// Concrete-type fast path for the default policy: this runs
			// once per admitted command, and the interface dispatch (plus
			// the inlining it blocks) is measurable at Fig. 9 rates.
			idx, ok, retryAt = d.arbRR.Next(d.now(), d.queues)
		} else {
			idx, ok, retryAt = d.arb.Next(d.now(), d.queues)
		}
		if !ok {
			return command{}, false, retryAt
		}
		q := d.queues[idx]
		if e, popped := q.PopSQE(); popped {
			return command{sqe: e, q: q}, true, 0
		}
		// The arbiter granted an empty queue (a buggy policy); spin
		// once more rather than fetch garbage.
	}
}

// scheduleWake arms a timer that rings the arrival doorbell at t, so
// a dispatcher parked on an all-throttled queue set re-arbitrates
// when the earliest token refills. Earlier pending timers win; a
// stale later timer fires a harmless spurious broadcast.
func (d *SSD) scheduleWake(t sim.Time) {
	if d.wakeAt != 0 && d.wakeAt <= t {
		return
	}
	d.wakeAt = t
	d.sim.AtOn(d.cfg.Shard, t, func() {
		if d.wakeAt == t {
			d.wakeAt = 0
		}
		d.arrival.Broadcast()
	})
}

// now is the device's local virtual time: its shard's clock. Under
// the coupled scheduler this equals the global clock; in a parallel
// drain it is the correct per-device time.
func (d *SSD) now() sim.Time { return d.sim.ShardNow(d.cfg.Shard) }

// dispatch is the device's command-fetch engine: admit one command at
// a time, each onto a free internal channel.
func (d *SSD) dispatch(p *sim.Proc) {
	for {
		cmd, ok, retryAt := d.arbitrate()
		if !ok {
			if retryAt > 0 {
				d.scheduleWake(retryAt)
			}
			d.arrival.Wait(p)
			continue
		}
		if cmd.sqe.Opcode == nvme.OpWrite {
			// Counted at admission so a flush admitted later on
			// cannot overtake an in-flight write.
			d.writesInFlight++
		}
		d.channels.Acquire(p)
		cb := d.getCmd()
		*cb = cmd
		p.SpawnArg(d.chanName, d.serveFn, cb)
	}
}

// serviceTime returns the media time for a transfer.
func (d *SSD) serviceTime(op nvme.Opcode, bytes int64) sim.Time {
	switch op {
	case nvme.OpRead:
		return d.cfg.ReadBase + sim.Time(float64(bytes)/d.cfg.ReadBW)
	case nvme.OpWrite:
		return d.cfg.WriteBase + sim.Time(float64(bytes)/d.cfg.WriteBW)
	case nvme.OpWriteZeroes:
		return d.cfg.WriteBase // metadata-only on the device
	default:
		return 0
	}
}

// serve executes one admitted command on an internal channel.
func (d *SSD) serve(p *sim.Proc, cmd command) {
	e := cmd.sqe
	status := nvme.StatusSuccess
	sp := e.Span
	sp.ServiceStart(p.Now())
	// effTr is the translation time exposed inside the service window
	// (Fig. 5's "translate" phase): the full walk on reads and
	// serialized writes, only the non-overlapped excess on overlapped
	// writes, zero when no VBA is involved.
	var effTr sim.Time

	switch e.Opcode {
	case nvme.OpFlush:
		d.channels.Release() // flush does not occupy a media channel
		for d.writesInFlight > 0 {
			d.writesDrained.Wait(p)
		}
		p.Sleep(d.cfg.FlushLatency)
		d.stats.Flushes++
		d.mFlushes.Inc()
		sp.ServiceEnd(p.Now(), 0)
		d.complete(cmd, nvme.StatusSuccess)
		return

	case nvme.OpRead, nvme.OpWrite, nvme.OpWriteZeroes:
		if dl, ok := d.inj.FireDelayQ(d.siteDelay, cmd.q.ID); ok {
			// Injected latency spike: the command still succeeds.
			if dl == 0 {
				dl = 50 * sim.Microsecond
			}
			p.Sleep(dl)
		}
		if dl, ok := d.inj.FireDelayQ(d.siteTimeout, cmd.q.ID); ok {
			// Injected command timeout: the command hangs on the
			// channel, then completes with an error and no media
			// access, like a controller-side abort.
			if dl == 0 {
				dl = 500 * sim.Microsecond
			}
			p.Sleep(dl)
			status = nvme.StatusCommandTimeout
			break
		}
		segs, tlat, st := d.resolve(e, cmd.q.PASID)
		if st != nvme.StatusSuccess {
			// Translation failed: the error returns to the process
			// after the ATS exchange, without media access (§5.3).
			p.Sleep(tlat)
			effTr = tlat
			status = st
			break
		}
		bytes := e.Sectors * storage.SectorSize
		svc := d.serviceTime(e.Opcode, bytes)
		if e.Opcode == nvme.OpRead {
			// Reads serialize translation before media access: the
			// device needs block addresses before reading (§4.3).
			p.Sleep(tlat + svc)
			effTr = tlat
		} else if d.cfg.SerializeWriteTranslation {
			p.Sleep(tlat + svc)
			effTr = tlat
		} else {
			// Writes overlap translation with the host-to-device
			// data transfer, so they see no VBA overhead (§4.3);
			// only a walk outlasting the transfer is exposed.
			if tlat > svc {
				effTr = tlat - svc
				svc = tlat
			}
			p.Sleep(svc)
		}
		if d.inj.FireQ(d.siteMedia, cmd.q.ID) {
			// Injected media error after full service time. The
			// transfer does not happen, so a failed write leaves the
			// medium untouched and a retry observes a clean slate.
			status = nvme.StatusMediaError
			d.putSegs(segs)
			break
		}
		status = d.moveData(e, segs)
		d.putSegs(segs)

	default:
		status = nvme.StatusInvalidField
	}

	if e.Opcode == nvme.OpWrite {
		d.writesInFlight--
		if d.writesInFlight == 0 {
			d.writesDrained.Broadcast()
		}
	}
	d.channels.Release()
	sp.ServiceEnd(p.Now(), effTr)
	d.complete(cmd, status)
}

// getSegs returns an empty segment buffer, reusing a retired one when
// available.
func (d *SSD) getSegs() []iommu.Segment {
	if n := len(d.segFree); n > 0 {
		s := d.segFree[n-1]
		d.segFree = d.segFree[:n-1]
		return s[:0]
	}
	return make([]iommu.Segment, 0, 4)
}

// putSegs retires a segment buffer handed out by resolve.
func (d *SSD) putSegs(s []iommu.Segment) {
	if cap(s) > 0 {
		d.segFree = append(d.segFree, s[:0])
	}
}

// resolve produces the sector segments for a command, translating
// VBAs through the IOMMU when needed. The PASID comes from the queue
// the command arrived on, never from the (untrusted) SQE itself. It
// returns the translation latency the device must account for. The
// returned segments borrow a recycled buffer; the caller releases it
// with putSegs when the command retires.
func (d *SSD) resolve(e nvme.SQE, pasid uint32) ([]iommu.Segment, sim.Time, nvme.Status) {
	if !e.UseVBA {
		if e.SLBA < 0 || e.SLBA+e.Sectors > d.Sectors() {
			return nil, 0, nvme.StatusLBAOutOfRange
		}
		return append(d.getSegs(), iommu.Segment{Sector: d.window + e.SLBA, Sectors: e.Sectors}), 0, nvme.StatusSuccess
	}
	if d.mmu == nil {
		return nil, 0, nvme.StatusInvalidField
	}
	buf := d.getSegs()
	r := d.mmu.TranslateInto(iommu.Request{
		PASID: pasid,
		DevID: d.cfg.DevID,
		VBA:   e.VBA,
		Bytes: e.Sectors * storage.SectorSize,
		Write: e.Opcode != nvme.OpRead,
	}, buf)
	switch r.Status {
	case iommu.OK:
		// Translated addresses are device-relative (a guest's LBA
		// space); bound them to this function's window, then shift in
		// place.
		for i, s := range r.Segments {
			if s.Sector < 0 || s.Sector+s.Sectors > d.Sectors() {
				d.putSegs(r.Segments)
				return nil, r.Latency, nvme.StatusLBAOutOfRange
			}
			r.Segments[i].Sector = d.window + s.Sector
		}
		return r.Segments, r.Latency, nvme.StatusSuccess
	case iommu.Denied:
		d.putSegs(buf)
		return nil, r.Latency, nvme.StatusAccessDenied
	default:
		d.putSegs(buf)
		return nil, r.Latency, nvme.StatusTranslationFault
	}
}

// moveData performs the actual transfer between the DMA buffer and
// the medium.
func (d *SSD) moveData(e nvme.SQE, segs []iommu.Segment) nvme.Status {
	off := int64(0)
	for _, s := range segs {
		n := s.Sectors * storage.SectorSize
		var err error
		switch e.Opcode {
		case nvme.OpRead:
			err = d.store.ReadSectors(s.Sector, s.Sectors, e.Buf[off:off+n])
			d.stats.Reads++
			d.stats.BytesRead += n
			d.mReads.Inc()
			d.mBytesRead.Add(n)
		case nvme.OpWrite:
			err = d.store.WriteSectors(s.Sector, s.Sectors, e.Buf[off:off+n])
			d.stats.Writes++
			d.stats.BytesWrite += n
			d.mWrites.Inc()
			d.mBytesWrite.Add(n)
		case nvme.OpWriteZeroes:
			err = d.store.Zero(s.Sector, s.Sectors)
			d.stats.Writes++
			d.mWrites.Inc()
		}
		if err != nil {
			return nvme.StatusInternalError
		}
		off += n
	}
	return nvme.StatusSuccess
}

func (d *SSD) complete(cmd command, status nvme.Status) {
	if !status.OK() {
		d.stats.Faults++
		d.mErrors.Inc()
	}
	d.opsByQ[cmd.q.ID]++
	cmd.q.PostCQE(nvme.CQE{CID: cmd.sqe.CID, Status: status})
}
