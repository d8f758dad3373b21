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
// The device is an event-driven engine, not a set of procs: fetch and
// service run as callbacks on the device's shard, posted at exactly
// the instants (and in the order) a proc's resumes would be, so the
// simulation's event stream is the one a proc-based device produces,
// without a coroutine switch on the device's side.
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

	// Shard is the simulation event shard the device's callbacks run
	// on (sim.AddShard). Topology boot assigns one shard per device so
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

// command is an admitted SQE with its originating queue, and the
// state of its service: serve runs it as a stage machine, one stage
// per event, on this pooled box.
type command struct {
	sqe nvme.SQE
	q   *nvme.QueuePair

	stage  stage
	status nvme.Status
	// effTr is the translation time exposed inside the service window
	// (Fig. 5's "translate" phase): the full walk on reads and
	// serialized writes, only the non-overlapped excess on overlapped
	// writes, zero when no VBA is involved.
	effTr sim.Time
	segs  []iommu.Segment // resolved media segments, held across the media wait

	// step runs the command's current stage. It is bound once per box
	// so posting it allocates nothing.
	step func()
}

// stage is where a command's service resumes when its step fires.
type stage uint8

const (
	stageStart     stage = iota // on a channel: fire delay/timeout, resolve, start media
	stageAccess                 // after an injected delay: same, minus the delay
	stageMedia                  // media time elapsed: move data
	stageFinish                 // error wait elapsed: retire without media access
	stageFlushWait              // flush parked until in-flight writes drain
	stageFlushDone              // flush latency elapsed
)

// SSD is the simulated device.
type SSD struct {
	sim   *sim.Sim
	cfg   Config
	store *storage.Store
	mmu   *iommu.IOMMU // nil when no VBA support is modelled

	queues   []*nvme.QueuePair
	arrival  *sim.Cond     // doorbell for all queues
	arb      Arbiter       // queue arbitration policy (FlatRR by default)
	arbRR    *FlatRR       // devirtualized fast path when arb is the default
	wakeAt   sim.Time      // pending token-refill re-arbitration, 0 = none
	channels *sim.Resource // VFs share their parent's pool and its FIFO

	// held is the admitted command waiting in the channel pool's FIFO
	// (dispatch parks there, at most one command per device); admitFn
	// and dispatchFn are the bound callbacks dispatch parks as.
	held       *command
	admitFn    func()
	dispatchFn func()

	writesInFlight int
	writesDrained  *sim.Cond

	claimer string

	// segFree recycles per-command segment buffers between serve
	// invocations so the resolve→moveData path allocates nothing in
	// steady state. Safe without locks: the simulation runs exactly
	// one goroutine at a time.
	segFree [][]iommu.Segment

	// cmdFree recycles command boxes, each with its step bound, so
	// admission allocates nothing in steady state.
	cmdFree []*command

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

// NewWithStore creates a device over st, a fresh sparse store or a
// prebuilt image, and starts its command fetch.
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
	}
	d.initSites()
	d.start()
	return d
}

// start binds the device's callbacks and posts its first dispatch on
// the device's shard at the current time.
func (d *SSD) start() {
	d.arbRR, _ = d.arb.(*FlatRR)
	d.dispatchFn = d.dispatch
	d.admitFn = d.admitted
	d.sim.AtOn(d.cfg.Shard, d.sim.Now(), d.dispatchFn)
}

// getCmd hands out a command box for one admission.
func (d *SSD) getCmd() *command {
	if n := len(d.cmdFree); n > 0 {
		c := d.cmdFree[n-1]
		d.cmdFree[n-1] = nil
		d.cmdFree = d.cmdFree[:n-1]
		return c
	}
	c := &command{}
	c.step = func() { d.serve(c) }
	return c
}

// putCmd retires a command box, dropping its Buf/Span references but
// keeping its bound step.
func (d *SSD) putCmd(c *command) {
	*c = command{step: c.step}
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
		window:        parent.window + baseSector,
	}
	vf.initSites()
	vf.SetObservers(parent.inj, parent.reg) // VFs share the machine's observers
	vf.start()
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

// Config returns the device configuration.
func (d *SSD) Config() Config { return d.cfg }

// Store exposes the backing medium (for image building and tests).
func (d *SSD) Store() *storage.Store { return d.store }

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

// CreateQueue registers a new queue pair with the device. The PASID
// is bound to the queue at creation time, as the BypassD kernel driver
// does, so the IOMMU knows whose page tables to walk (paper §3.3).
func (d *SSD) CreateQueue(pasid uint32, depth int) (*nvme.QueuePair, error) {
	if len(d.queues) >= d.cfg.MaxQueues {
		return nil, fmt.Errorf("device %s: queue limit reached", d.cfg.Name)
	}
	q := nvme.NewQueuePair(d.sim, len(d.queues)+1, pasid, depth)
	// All queues ring the shared arrival doorbell so dispatch runs
	// regardless of which queue was written.
	q.Doorbell = d.arrival
	d.queues = append(d.queues, q)
	d.mQueues.Add(1)
	return q, nil
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

// arbitrate pops the next command the arbiter grants, reporting
// ok=false when nothing is eligible (and the refill instant to retry
// at, if the arbiter is holding back a rate-limited queue).
func (d *SSD) arbitrate() (nvme.SQE, *nvme.QueuePair, bool, sim.Time) {
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
			return nvme.SQE{}, nil, false, retryAt
		}
		q := d.queues[idx]
		if e, popped := q.PopSQE(); popped {
			return e, q, true, 0
		}
		// The arbiter granted an empty queue (a buggy policy); spin
		// once more rather than fetch garbage.
	}
}

// scheduleWake arms a timer that rings the arrival doorbell at t, so
// a dispatch parked on an all-throttled queue set re-arbitrates when
// the earliest token refills. Earlier pending timers win; a
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
// a time, each onto a free internal channel. It runs whenever the
// doorbell rings while it is parked there, and returns when nothing
// is eligible (parked on the doorbell) or when the channel pool is
// exhausted (the admitted command held in the pool's FIFO; admitted
// resumes the loop).
func (d *SSD) dispatch() {
	for {
		e, q, ok, retryAt := d.arbitrate()
		if !ok {
			if retryAt > 0 {
				d.scheduleWake(retryAt)
			}
			d.arrival.WaitFunc(d.cfg.Shard, d.dispatchFn)
			return
		}
		if e.Opcode == nvme.OpWrite {
			// Counted at admission so a flush admitted later on
			// cannot overtake an in-flight write.
			d.writesInFlight++
		}
		c := d.getCmd()
		c.sqe, c.q = e, q
		if !d.channels.AcquireFunc(d.cfg.Shard, d.admitFn) {
			d.held = c
			return
		}
		d.sim.AtOn(d.cfg.Shard, d.now(), c.step)
	}
}

// admitted runs when the channel pool hands the held command a unit:
// its service starts, and dispatch carries on fetching.
func (d *SSD) admitted() {
	c := d.held
	d.held = nil
	d.sim.AtOn(d.cfg.Shard, d.now(), c.step)
	d.dispatch()
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

// after posts c's step to run stage next, dt from now.
func (d *SSD) after(c *command, next stage, dt sim.Time) {
	c.stage = next
	d.sim.AtOn(d.cfg.Shard, d.now()+dt, c.step)
}

// serve runs the current stage of one admitted command on an internal
// channel. A stage ends by posting the command's next stage (a media
// or fault wait) or by retiring it.
func (d *SSD) serve(c *command) {
	switch c.stage {
	case stageStart:
		c.status = nvme.StatusSuccess
		c.sqe.Span.ServiceStart(d.now())
		switch c.sqe.Opcode {
		case nvme.OpFlush:
			d.channels.Release() // flush does not occupy a media channel
			d.flushWait(c)
		case nvme.OpRead, nvme.OpWrite, nvme.OpWriteZeroes:
			if dl, ok := d.inj.FireDelayQ(d.siteDelay, c.q.ID); ok {
				// Injected latency spike: the command still succeeds.
				if dl == 0 {
					dl = 50 * sim.Microsecond
				}
				d.after(c, stageAccess, dl)
				return
			}
			d.access(c)
		default:
			c.status = nvme.StatusInvalidField
			d.finish(c)
		}
	case stageAccess:
		d.access(c)
	case stageMedia:
		if d.inj.FireQ(d.siteMedia, c.q.ID) {
			// Injected media error after full service time. The
			// transfer does not happen, so a failed write leaves the
			// medium untouched and a retry observes a clean slate.
			c.status = nvme.StatusMediaError
		} else {
			c.status = d.moveData(c.sqe, c.segs)
		}
		d.putSegs(c.segs)
		c.segs = nil
		d.finish(c)
	case stageFinish:
		d.finish(c)
	case stageFlushWait:
		d.flushWait(c)
	case stageFlushDone:
		d.mFlushes.Inc()
		c.sqe.Span.ServiceEnd(d.now(), 0)
		d.complete(c, nvme.StatusSuccess)
	}
}

// access runs a data command's timeout decision and translation, then
// waits out the media (or error) time.
func (d *SSD) access(c *command) {
	e := &c.sqe
	if dl, ok := d.inj.FireDelayQ(d.siteTimeout, c.q.ID); ok {
		// Injected command timeout: the command hangs on the channel,
		// then completes with an error and no media access, like a
		// controller-side abort.
		if dl == 0 {
			dl = 500 * sim.Microsecond
		}
		c.status = nvme.StatusCommandTimeout
		d.after(c, stageFinish, dl)
		return
	}
	segs, tlat, st := d.resolve(*e, c.q.PASID)
	if st != nvme.StatusSuccess {
		// Translation failed: the error returns to the process after
		// the ATS exchange, without media access (§5.3).
		c.effTr = tlat
		c.status = st
		d.after(c, stageFinish, tlat)
		return
	}
	c.segs = segs
	svc := d.serviceTime(e.Opcode, e.Sectors*storage.SectorSize)
	if e.Opcode == nvme.OpRead || d.cfg.SerializeWriteTranslation {
		// Reads serialize translation before media access: the device
		// needs block addresses before reading (§4.3). The ablation
		// serializes writes the same way.
		c.effTr = tlat
		d.after(c, stageMedia, tlat+svc)
		return
	}
	// Writes overlap translation with the host-to-device data
	// transfer, so they see no VBA overhead (§4.3); only a walk
	// outlasting the transfer is exposed.
	if tlat > svc {
		c.effTr = tlat - svc
		svc = tlat
	}
	d.after(c, stageMedia, svc)
}

// flushWait parks a flush until every write admitted so far has
// retired, then waits out the cache flush.
func (d *SSD) flushWait(c *command) {
	if d.writesInFlight > 0 {
		c.stage = stageFlushWait
		d.writesDrained.WaitFunc(d.cfg.Shard, c.step)
		return
	}
	d.after(c, stageFlushDone, d.cfg.FlushLatency)
}

// finish retires a data command: its write no longer holds flushes
// back, its channel passes on, and its completion is posted.
func (d *SSD) finish(c *command) {
	if c.sqe.Opcode == nvme.OpWrite {
		d.writesInFlight--
		if d.writesInFlight == 0 {
			d.writesDrained.Broadcast()
		}
	}
	d.channels.Release()
	c.sqe.Span.ServiceEnd(d.now(), c.effTr)
	d.complete(c, c.status)
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
			d.mReads.Inc()
			d.mBytesRead.Add(n)
		case nvme.OpWrite:
			err = d.store.WriteSectors(s.Sector, s.Sectors, e.Buf[off:off+n])
			d.mWrites.Inc()
			d.mBytesWrite.Add(n)
		case nvme.OpWriteZeroes:
			err = d.store.Zero(s.Sector, s.Sectors)
			d.mWrites.Inc()
		}
		if err != nil {
			return nvme.StatusInternalError
		}
		off += n
	}
	return nvme.StatusSuccess
}

// complete posts c's completion and retires its box.
func (d *SSD) complete(c *command, status nvme.Status) {
	if !status.OK() {
		d.mErrors.Inc()
	}
	q := c.q
	cqe := nvme.CQE{CID: c.sqe.CID, Status: status}
	d.putCmd(c)
	q.PostCQE(cqe)
}
