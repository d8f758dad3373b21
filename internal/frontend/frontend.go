// Package frontend is the service tier above the shared-SSD fleet:
// it multiplexes millions of simulated users over a bounded pool of
// worker processes serving the repo's KV backends (WiredTiger, KVell,
// BPF-KV) end to end on the virtual clock.
//
// The paper's evaluation stops at processes sharing one device; this
// tier models the layer a real deployment puts on top — a front door
// that accepts an open-loop arrival stream (Zipf-skewed user
// popularity, diurnal or bursty load shapes, both from
// internal/workload), routes each request to the device that owns the
// user, and serves it through a worker process's own queue pair on
// that device. Because arrivals are open loop, the tier must decide
// what it cannot serve: admission control (token-bucket pacing,
// bounded backlogs, or CoDel-style sojourn-triggered dequeue drops)
// sheds load explicitly, so the fleet degrades by rejecting requests
// instead of by letting every admitted request's latency grow without
// bound.
//
// Determinism follows the tenants plane's contract: one fleet runs on
// one fresh simulation; each device's generator, admission state,
// fairness queues, and workers live on that device's event shard, and
// every random draw comes from a per-device rand.Source seeded from
// the fleet seed and the device index, consumed only by that device's
// generator. A fixed seed replays every arrival, shed decision, and
// completion instant exactly, at any host parallelism and any shard
// worker count.
package frontend

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MaxPool bounds the worker pool: the whole point of the tier is that
// millions of users do not get millions of processes — they share a
// fixed fleet of queue pairs.
const MaxPool = 64

// fairnessClasses is the number of per-device fairness queues users
// hash into. Workers drain classes round-robin, so one hot user (or
// one hot fairness class) cannot monopolize a device's pool the way a
// single FIFO would let it.
const fairnessClasses = 32

// Policy selects the admission-control policy at the front door.
type Policy string

// Supported admission policies.
const (
	// AdmitAll is the flat-admission baseline: every arrival is
	// enqueued, nothing is shed, and under overload the backlog — and
	// every admitted request's sojourn — grows without bound.
	AdmitAll Policy = "none"
	// AdmitToken paces admissions with a per-device token bucket
	// refilled at TokenRate: arrivals beyond the sustainable rate are
	// shed at the door, before they cost a queue slot.
	AdmitToken Policy = "token"
	// AdmitCoDel admits at the door but drops at dequeue when queueing
	// delay has exceeded its target for a full interval (CoDel's
	// control law), shedding exactly enough to pull sojourn back under
	// the target.
	AdmitCoDel Policy = "codel"
)

// ValidPolicy reports whether name is a supported admission policy
// ("" reads as AdmitAll).
func ValidPolicy(name Policy) bool {
	switch name {
	case "", AdmitAll, AdmitToken, AdmitCoDel:
		return true
	}
	return false
}

// Fleet describes one service-tier run: the user population, the
// offered load, the worker pool, and the admission policy in front of
// it. The zero values of optional fields read as the documented
// defaults.
type Fleet struct {
	Name string `json:"name"`

	// Backend selects the KV store every device serves: "wtiger",
	// "kvell", or "bpfkv".
	Backend string `json:"backend"`
	// Engine is the I/O interface worker processes use (default
	// bypassd). SPDK is rejected: it claims the device exclusively,
	// which a shared service tier cannot.
	Engine core.Engine `json:"engine,omitempty"`

	// Devices is the SSD count; users stripe across devices by
	// user % Devices (0 reads as 1).
	Devices int `json:"devices,omitempty"`
	// Pool is the total number of worker processes, striped
	// round-robin across devices. Each worker is its own kernel
	// process — own PASID, own queue pair(s) on its device.
	// 1 <= Pool <= MaxPool, Pool >= Devices.
	Pool int `json:"pool"`

	// Users is the distinct simulated user-ID population.
	Users uint64 `json:"users"`
	// Requests is the total number of arrivals to generate across the
	// fleet. Every user appears at least once when
	// Requests >= Users/(1-HotFrac) (the generator walks a bijective
	// permutation of each device's user partition underneath the
	// Zipf-hot traffic).
	Requests int `json:"requests"`
	// RateOps is the fleet-wide mean offered load, requests/sec.
	RateOps float64 `json:"rate_ops"`
	// Shape is the load shape over virtual time (steady, diurnal,
	// bursty; see workload.Shape).
	Shape workload.Shape `json:"shape,omitempty"`
	// HotFrac is the fraction of arrivals drawn from the Zipf
	// user-popularity distribution; the rest walk the user partition
	// for coverage. Default 0.2.
	HotFrac float64 `json:"hot_frac,omitempty"`
	// WriteFrac is the fraction of requests that are updates (bpfkv is
	// read-only and forces 0).
	WriteFrac float64 `json:"write_frac,omitempty"`

	// Admission is the policy at the front door (default AdmitAll).
	Admission Policy `json:"admission,omitempty"`
	// QueueCap bounds each device's admitted backlog; arrivals beyond
	// it are shed regardless of policy. 0 = unbounded (AdmitAll
	// ignores the cap: it is the no-admission baseline).
	QueueCap int `json:"queue_cap,omitempty"`
	// TokenRate is the fleet-wide token refill rate for AdmitToken,
	// requests/sec — set it just under measured capacity. Required
	// when Admission is "token".
	TokenRate float64 `json:"token_rate,omitempty"`
	// TokenBurst is the per-device bucket depth (default
	// 2 * per-device pool share, min 4).
	TokenBurst int `json:"token_burst,omitempty"`
	// SLO is the per-request sojourn target; 0 = none. AdmitCoDel
	// derives its control-law constants from it.
	SLO sim.Time `json:"slo_ns,omitempty"`

	// RouteNS is the dispatch cost a worker pays on the virtual clock
	// to claim and route one request (demux, user lookup, backend
	// handoff). Default 300ns; -1 = free.
	RouteNS sim.Time `json:"route_ns,omitempty"`

	// StoreKeys is the per-device backend key-space size (default
	// 4096). User IDs hash onto this key space: the tier serves a
	// large population over a bounded hot dataset.
	StoreKeys uint64 `json:"store_keys,omitempty"`
	// CacheFrac sizes the wtiger page cache as a fraction of the
	// store's data bytes (default 0.5); other backends ignore it.
	CacheFrac float64 `json:"cache_frac,omitempty"`
	// Arbiter is the per-device NVMe arbitration policy ("rr" default,
	// "wrr", "prio").
	Arbiter string `json:"arbiter,omitempty"`

	// Faults names a fault-injection profile (faults.Profiles) for the
	// run's machine, seeded from the run's seed; "" disables
	// injection. It is a run option, not part of the fleet-file schema.
	Faults string `json:"-"`
	// Metrics and Trace are the run's metrics registry and trace
	// collector (nil: the process-global ones, if armed). Run options
	// too.
	Metrics *metrics.Registry `json:"-"`
	Trace   *trace.Collector  `json:"-"`
}

// NumDevices is the fleet's device count with the default made
// explicit.
func (fl Fleet) NumDevices() int {
	if fl.Devices < 1 {
		return 1
	}
	return fl.Devices
}

// routeCost is the per-request dispatch cost with defaults resolved.
func (fl Fleet) routeCost() sim.Time {
	if fl.RouteNS < 0 {
		return 0
	}
	if fl.RouteNS == 0 {
		return 300 * sim.Nanosecond
	}
	return fl.RouteNS
}

// stream is one device's arrival stream: its share of the offered
// load, in the fleet's shape.
func (fl Fleet) stream() workload.StreamConfig {
	return workload.StreamConfig{RateOps: fl.RateOps / float64(fl.NumDevices()), Shape: fl.Shape}
}

// normalized validates the fleet and fills defaults.
func (fl Fleet) normalized() (Fleet, error) {
	ndev := fl.NumDevices()
	fl.Devices = ndev
	if fl.Pool < 1 || fl.Pool > MaxPool {
		return fl, fmt.Errorf("frontend: pool %d outside [1, %d]", fl.Pool, MaxPool)
	}
	if fl.Pool < ndev {
		return fl, fmt.Errorf("frontend: pool %d smaller than %d devices", fl.Pool, ndev)
	}
	if fl.Users < uint64(ndev) {
		return fl, fmt.Errorf("frontend: %d users cannot stripe across %d devices", fl.Users, ndev)
	}
	if fl.Requests < ndev {
		return fl, fmt.Errorf("frontend: %d requests across %d devices", fl.Requests, ndev)
	}
	if _, err := workload.NewStream(fl.stream()); err != nil {
		return fl, fmt.Errorf("frontend: %w", err)
	}
	if !ValidPolicy(fl.Admission) {
		return fl, fmt.Errorf("frontend: unknown admission policy %q", fl.Admission)
	}
	if fl.Admission == "" {
		fl.Admission = AdmitAll
	}
	if fl.Admission == AdmitToken && fl.TokenRate <= 0 {
		return fl, fmt.Errorf("frontend: token admission needs a positive token_rate")
	}
	if fl.HotFrac == 0 {
		fl.HotFrac = 0.2
	}
	if fl.HotFrac < 0 || fl.HotFrac >= 1 {
		return fl, fmt.Errorf("frontend: hot_frac %g outside [0, 1)", fl.HotFrac)
	}
	if fl.WriteFrac < 0 || fl.WriteFrac > 1 {
		return fl, fmt.Errorf("frontend: write_frac %g outside [0, 1]", fl.WriteFrac)
	}
	if fl.StoreKeys == 0 {
		fl.StoreKeys = 4096
	}
	if fl.CacheFrac <= 0 || fl.CacheFrac > 1 {
		fl.CacheFrac = 0.5
	}
	if fl.TokenBurst < 1 {
		fl.TokenBurst = 2 * (fl.Pool / ndev)
		if fl.TokenBurst < 4 {
			fl.TokenBurst = 4
		}
	}
	if fl.Engine == "" {
		fl.Engine = core.EngineBypassD
	}
	if fl.Engine == core.EngineSPDK {
		return fl, fmt.Errorf("frontend: spdk claims the device exclusively; the service tier needs a shared interface")
	}
	bk, err := backendByName(fl.Backend)
	if err != nil {
		return fl, err
	}
	if !bk.writable() {
		fl.WriteFrac = 0
	}
	return fl, nil
}

// DevResult is one device's slice of a fleet run.
type DevResult struct {
	Device int

	// The window, the sojourn of completed requests (shed ones cost the
	// shed counters), the peak admitted backlog and the arrival spikes.
	workload.Tally

	Offered     int64 // arrivals generated for this device
	Admitted    int64 // arrivals that entered the backlog
	ShedArrival int64 // rejected at the door (token / queue cap)
	ShedQueue   int64 // dropped at dequeue (CoDel)
	Completed   int64 // served end to end
	SLOMet      int64 // completed with sojourn <= SLO (when SLO > 0)
	UsersServed int64 // distinct users with >= 1 completed request

	// The pad rounds the 104 B of fields up to whole cache lines: the
	// devices' results are allocated side by side, and each device's
	// procs write its counters on every request of a parallel drain.
	_ [2*sim.CacheLine - 104]byte
}

// Shed is the device's total rejected+dropped count.
func (d *DevResult) Shed() int64 { return d.ShedArrival + d.ShedQueue }

// Result aggregates a fleet run, per device and fleet-wide.
type Result struct {
	Fleet   Fleet
	Devices []*DevResult
}

// Offered is the fleet-wide arrival count.
func (r *Result) Offered() int64 { return r.sum(func(d *DevResult) int64 { return d.Offered }) }

// Admitted is the fleet-wide admitted count.
func (r *Result) Admitted() int64 { return r.sum(func(d *DevResult) int64 { return d.Admitted }) }

// Completed is the fleet-wide served count.
func (r *Result) Completed() int64 { return r.sum(func(d *DevResult) int64 { return d.Completed }) }

// Shed is the fleet-wide rejected+dropped count.
func (r *Result) Shed() int64 { return r.sum(func(d *DevResult) int64 { return d.Shed() }) }

// UsersServed is the fleet-wide distinct-user count over completed
// requests.
func (r *Result) UsersServed() int64 {
	return r.sum(func(d *DevResult) int64 { return d.UsersServed })
}

// Bursts is the fleet-wide injected-spike count.
func (r *Result) Bursts() int64 { return r.sum(func(d *DevResult) int64 { return d.Bursts }) }

func (r *Result) sum(f func(*DevResult) int64) int64 {
	var n int64
	for _, d := range r.Devices {
		n += f(d)
	}
	return n
}

// ShedPct is the shed fraction of offered load, in percent.
func (r *Result) ShedPct() float64 {
	if off := r.Offered(); off > 0 {
		return 100 * float64(r.Shed()) / float64(off)
	}
	return 0
}

// Window is the fleet's active span: first arrival to last
// completion.
func (r *Result) Window() (start, end sim.Time) {
	for i, d := range r.Devices {
		if i == 0 || (d.Start > 0 && d.Start < start) {
			start = d.Start
		}
		if d.End > end {
			end = d.End
		}
	}
	return start, end
}

// Goodput is completed requests/sec over the active window — the
// throughput the fleet actually delivered, after shedding.
func (r *Result) Goodput() float64 {
	start, end := r.Window()
	return stats.Throughput(r.Completed(), end-start)
}

// Sojourn merges the per-device sojourn histograms (device order, so
// the merge is deterministic).
func (r *Result) Sojourn() *stats.Histogram {
	h := stats.NewHistogram()
	for _, d := range r.Devices {
		h.Merge(d.Sojourn)
	}
	return h
}

// SLOCompliance is the fraction of completed requests inside the SLO,
// in percent; 100 when no SLO was set.
func (r *Result) SLOCompliance() float64 {
	if r.Fleet.SLO <= 0 {
		return 100
	}
	done := r.Completed()
	if done == 0 {
		return 100
	}
	return 100 * float64(r.sum(func(d *DevResult) int64 { return d.SLOMet })) / float64(done)
}

// devState is what a device's workers share beyond its queue: the
// CoDel controller and the users they served. Only procs on the
// device's event shard touch it; the pad gives it a cache line of its
// own, apart from the other devices' states that setup allocates next
// to it.
type devState struct {
	q *workload.Queue

	// CoDel (AdmitCoDel).
	firstAbove sim.Time
	tripped    bool

	served []uint64 // bitset over the device's user partition
	_      [sim.CacheLine - 48]byte
}

// codelDrop runs the CoDel control law at dequeue: queueing delay
// above target for a full interval trips the controller; once
// tripped, every above-target request is shed and only requests still
// inside the target are served. Classic CoDel paces drops on a sqrt
// ramp and leaves drop mode the moment delay dips under target,
// relying on senders backing off — an open-loop front door gets no
// such help, and the fairness queues' round-robin dequeue order means
// one young request says nothing about the aged ones parked in other
// classes. So the tier sheds the whole excess while tripped and only
// re-arms when the backlog fully drains (see startWorker), the
// server-side CoDel adaptation.
func (ds *devState) codelDrop(now, at, target, interval sim.Time) bool {
	if ds.tripped {
		return now-at >= target
	}
	if now-at < target {
		ds.firstAbove = 0
		return false
	}
	if ds.firstAbove == 0 {
		ds.firstAbove = now + interval
		return false
	}
	if now >= ds.firstAbove {
		ds.tripped = true
		return true
	}
	return false
}

// partSize is the number of users device d owns under u % ndev
// striping.
func partSize(users uint64, ndev, d int) uint64 {
	n := users / uint64(ndev)
	if uint64(d) < users%uint64(ndev) {
		n++
	}
	return n
}

// reqShare is the number of arrivals device d generates.
func reqShare(requests, ndev, d int) int {
	n := requests / ndev
	if d < requests%ndev {
		n++
	}
	return n
}

// RunCountedWorkers executes a fleet on one freshly booted system and
// additionally reports the number of simulator events dispatched (the
// throughput suite's numerator). Setup (mounts, store builds, pool
// processes) runs coupled; Machine.Drive then runs the traffic phase of
// a multi-device fleet under the parallel drain on up to workers host
// goroutines (workers < 1 counts as 1), exactly like the tenants
// plane. Results are byte-identical at any worker count.
func RunCountedWorkers(seed int64, fl Fleet, workers int) (*Result, uint64, error) {
	res, s, err := runSim(seed, fl, workers)
	if err != nil {
		return nil, 0, err
	}
	return res, s.Processed(), nil
}

// runSim is RunCountedWorkers returning the run's simulator, shut
// down, so tests can read all of its dispatch counters.
func runSim(seed int64, fl Fleet, workers int) (*Result, *sim.Sim, error) {
	fl, err := fl.normalized()
	if err != nil {
		return nil, nil, err
	}
	ndev := fl.Devices
	bk, err := backendByName(fl.Backend)
	if err != nil {
		return nil, nil, err
	}
	inj, err := faults.New(fl.Faults, seed)
	if err != nil {
		return nil, nil, err
	}

	sys, err := core.Boot(core.Config{Capacity: bk.capacity(fl), Devices: ndev,
		Observers: kernel.Observers{Faults: inj, Trace: fl.Trace, Metrics: fl.Metrics}})
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	for _, n := range sys.M.Nodes {
		n.Dev.SetArbiter(device.ArbiterByName(fl.Arbiter))
	}

	res := &Result{Fleet: fl, Devices: make([]*DevResult, ndev)}
	states := make([]*devState, ndev)
	for d := 0; d < ndev; d++ {
		p := partSize(fl.Users, ndev, d)
		res.Devices[d] = &DevResult{Device: d}
		states[d] = &devState{
			q:      workload.NewQueue(sys.Sim, fairnessClasses, &res.Devices[d].Tally),
			served: make([]uint64, (p+63)/64),
		}
	}

	err = sys.M.Drive("frontend-setup", workers, func(p *sim.Proc, fail func(error)) error {
		// Coupled phase: per-device mounts, store builds, and the
		// worker-process pool, in device order.
		for d := 0; d < ndev; d++ {
			root := sys.NewProcessOn(ext4.Root, d)
			if err := root.Mkdir(p, "/frontend", 0o777); err != nil {
				return err
			}
			if err := bk.build(p, sys, d, fl); err != nil {
				return err
			}
			if err := root.Sync(p); err != nil {
				return err
			}
		}
		prs := make([]*kernel.Process, fl.Pool)
		for wi := 0; wi < fl.Pool; wi++ {
			prs[wi] = sys.NewProcessOn(ext4.Root, wi%ndev)
		}
		for d := 0; d < ndev; d++ {
			startDevice(sys, fl, seed, d, states[d].q, res.Devices[d])
		}
		for wi := 0; wi < fl.Pool; wi++ {
			startWorker(sys, bk, fl, wi, prs[wi], states[wi%ndev], res.Devices[wi%ndev], fail)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for d := 0; d < ndev; d++ {
		for _, word := range states[d].served {
			for ; word != 0; word &= word - 1 {
				res.Devices[d].UsersServed++
			}
		}
	}
	return res, sys.Sim, nil
}

// startDevice spawns device d's arrival generator on its event shard.
// The generator owns the device's rng and its admission decisions: a
// user pick, the door's token bucket and queue cap, and the user's
// fairness class. Everything it writes per arrival is built inside its
// proc, so a parallel drain never shares a cache line between two
// devices' generators.
func startDevice(sys *core.System, fl Fleet, seed int64, d int, q *workload.Queue, dr *DevResult) {
	shard := sys.M.Nodes[d].Shard
	ndev := fl.Devices
	part := partSize(fl.Users, ndev, d)
	reqs := reqShare(fl.Requests, ndev, d)
	mOffered := sys.M.Metrics.Counter("frontend_requests_total", "dev", fmt.Sprint(d))
	mShed := sys.M.Metrics.Counter("frontend_shed_total", "dev", fmt.Sprint(d))

	sys.Sim.SpawnOn(shard, fmt.Sprintf("frontend-gen-%d", d), func(g *sim.Proc) {
		rng := rand.New(rand.NewSource(seed*104729 + int64(d)*7919 + 29))
		stream, _ := workload.NewStream(fl.stream()) // normalized checked it
		zipf := workload.NewZipf(part, workload.DefaultZipfTheta)
		// Coverage walk: a seeded affine bijection over the device's
		// user partition, so the non-hot arrivals visit every user the
		// device owns before repeating.
		walkA := uint64(rng.Int63n(int64(part)))*2 + 1
		for gcd(walkA, part) != 1 {
			walkA += 2
		}
		walkB := uint64(rng.Int63n(int64(part)))
		var walkI, hotMark uint64

		tokenRate := fl.TokenRate / float64(ndev) // tokens/sec for this device
		tokens := float64(fl.TokenBurst)
		var lastFill sim.Time
		q.Generate(g, rng, stream, reqs, sys.M.Faults, func(i int, now sim.Time) (workload.Request, int) {
			// User pick: the deterministic hot cadence keeps the walk's
			// coverage guarantee exact at any seed.
			var pidx uint64
			if hot := uint64(float64(i+1) * fl.HotFrac); hot > hotMark {
				hotMark = hot
				pidx = zipf.NextScrambled(rng)
			} else {
				pidx = (walkA*walkI + walkB) % part
				walkI++
			}
			user := uint64(d) + uint64(ndev)*pidx
			write := fl.WriteFrac > 0 && rng.Float64() < fl.WriteFrac
			dr.Offered++
			mOffered.Inc()

			admit := true
			switch fl.Admission {
			case AdmitToken:
				tokens += float64(now-lastFill) * tokenRate / 1e9
				if tokens > float64(fl.TokenBurst) {
					tokens = float64(fl.TokenBurst)
				}
				lastFill = now
				if fl.QueueCap > 0 && q.Backlog() >= fl.QueueCap {
					admit = false
				} else if tokens >= 1 {
					tokens--
				} else {
					admit = false
				}
			case AdmitCoDel:
				admit = fl.QueueCap <= 0 || q.Backlog() < fl.QueueCap
			}
			if !admit {
				dr.ShedArrival++
				mShed.Inc()
				return workload.Request{}, -1
			}
			dr.Admitted++
			h := workload.Scramble(user)
			return workload.Request{Key: h % fl.StoreKeys, User: pidx, Write: write}, int((h >> 32) % fairnessClasses)
		})
	})
}

// startWorker spawns pool worker wi — its own kernel process and
// queue pair — on its device's event shard.
func startWorker(sys *core.System, bk backend, fl Fleet, wi int, pr *kernel.Process, ds *devState, dr *DevResult, fail func(error)) {
	d := wi % fl.Devices
	shard := sys.M.Nodes[d].Shard
	// CoDel constants, derived from the SLO. The controller's sojourn
	// sawtooth peaks near target + interval (delay grows ~1:1 with
	// time at overload until the interval hysteresis trips), so both
	// must fit inside the SLO with room for service time on top.
	target, interval := fl.SLO/4, fl.SLO/2
	if fl.SLO <= 0 {
		target = 50 * sim.Microsecond
		interval = 100 * sim.Microsecond
	}
	route := fl.routeCost()
	mDone := sys.M.Metrics.Counter("frontend_completed_total", "dev", fmt.Sprint(d))
	mShed := sys.M.Metrics.Counter("frontend_shed_total", "dev", fmt.Sprint(d))
	mSojourn := sys.M.Metrics.Histogram("frontend_sojourn_ns", "dev", fmt.Sprint(d))

	sys.Sim.SpawnOn(shard, fmt.Sprintf("frontend-w%d", wi), func(w *sim.Proc) {
		abort := func(err error) {
			fail(err)
			ds.q.Abort()
		}
		srv, err := bk.newServer(w, sys, pr, d, fl)
		if err != nil {
			abort(err)
			return
		}
		serve := func(r workload.Request) bool {
			if fl.Admission == AdmitCoDel && ds.codelDrop(w.Now(), r.At, target, interval) {
				dr.ShedQueue++
				mShed.Inc()
				return false
			}
			if route > 0 {
				w.Sleep(route)
			}
			if err := srv.do(w, r.Key, r.Write); err != nil {
				abort(fmt.Errorf("frontend: worker %d: %w", wi, err))
				return false
			}
			return true
		}
		count := func(r workload.Request, soj sim.Time) {
			dr.Completed++
			mDone.Inc()
			mSojourn.Observe(soj)
			if fl.SLO > 0 && soj <= fl.SLO {
				dr.SLOMet++
			}
			ds.served[r.User/64] |= 1 << (r.User % 64)
		}
		// An empty queue means the overload (if any) has drained:
		// re-arm the CoDel controller.
		idle := func() { ds.tripped, ds.firstAbove = false, 0 }
		ds.q.Serve(w, serve, count, idle)
	})
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
