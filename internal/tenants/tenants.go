// Package tenants is the multi-tenant QoS plane: open-loop per-tenant
// traffic generation, device-side weighted arbitration, and SLO
// accounting.
//
// The paper evaluates sharing with symmetric closed-loop fio jobs
// (Figs. 10/11) and delegates inter-process fairness to NVMe queue
// arbitration (§3.7). This package models the part that evaluation
// leaves open: many competing clients with different priorities,
// rates, and latency SLOs. Each tenant is its own OS process with its
// own files and interface (sync/libaio/io_uring/SPDK/BypassD); a
// seeded arrival process (Poisson or fixed-interval) generates
// requests on the virtual clock independently of completions, so —
// unlike internal/fio's closed loop — queueing delay is visible: a
// request's sojourn time is measured from its generated arrival
// instant to its completion, and a saturated tenant's backlog grows
// instead of throttling the offered load.
//
// Determinism: a scenario runs on one fresh simulation; every random
// draw (interarrival gaps, offsets, read/write mix) comes from a
// per-tenant rand.Source seeded from the scenario seed and the tenant
// index, drawn only by that tenant's generator proc. Replaying the
// same seed reproduces every arrival and completion instant exactly,
// at any host parallelism.
package tenants

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/ext4"
	"repro/internal/faults"
	"repro/internal/fio"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Arrival selects a tenant's arrival process. The implementations
// live in internal/workload, shared with the frontend service tier.
type Arrival = workload.Process

// Supported arrival processes.
const (
	// Poisson draws exponential interarrival gaps at RateOps — the
	// open-system model whose tail exposes queueing delay.
	Poisson = workload.Poisson
	// Fixed spaces arrivals exactly 1/RateOps apart.
	Fixed = workload.Fixed
)

// Tenant describes one client of the shared device.
type Tenant struct {
	Name   string      `json:"name"`
	Engine core.Engine `json:"engine"`

	Arrival   Arrival  `json:"arrival,omitempty"` // default Poisson
	RateOps   float64  `json:"rate_ops"`          // offered load, requests/sec
	Ops       int      `json:"ops"`               // arrivals to generate
	BS        int      `json:"bs"`                // request size, bytes
	WriteFrac float64  `json:"write_frac,omitempty"`
	FileBytes int64    `json:"file_bytes"`
	QD        int      `json:"qd,omitempty"` // service contexts; default 1
	QoS       nvme.QoS `json:"qos,omitempty"`
	SLO       sim.Time `json:"slo_ns,omitempty"` // per-request target; 0 = none
}

// Scenario is a complete multi-tenant run.
type Scenario struct {
	Name string `json:"name"`
	// Arbiter selects the device arbitration policy: "rr" (default),
	// "wrr", or "prio" (see device.ArbiterByName); every device of the
	// topology runs the same policy.
	Arbiter  string `json:"arbiter,omitempty"`
	Capacity int64  `json:"capacity,omitempty"` // per-device bytes; 0 = auto
	// Devices is the number of SSDs in the machine (0 or 1 = the
	// single-device machine every earlier scenario ran on). Tenants
	// stripe across devices round-robin by tenant index; each device
	// gets its own file system, queues, and arbiter instance.
	Devices int      `json:"devices,omitempty"`
	Tenants []Tenant `json:"tenants"`
	// Faults names a fault-injection profile (faults.Profiles) for the
	// run's machine, seeded from the run's seed; "" disables
	// injection. It is a run option, not part of the scenario-file
	// schema.
	Faults string `json:"-"`
	// Metrics and Trace are the run's metrics registry and trace
	// collector (nil: the process-global ones, if armed). Run options
	// too.
	Metrics *metrics.Registry `json:"-"`
	Trace   *trace.Collector  `json:"-"`
}

// NumDevices is the scenario's device count with the default made
// explicit.
func (sc Scenario) NumDevices() int {
	if sc.Devices < 1 {
		return 1
	}
	return sc.Devices
}

// placement maps a tenant index to its device node: round-robin
// striping, the deterministic tenant → device policy.
func (sc Scenario) placement(ti int) int { return ti % sc.NumDevices() }

// Result aggregates one tenant's run.
type Result struct {
	Tenant Tenant

	Ops   int64
	Bytes int64
	Start sim.Time // first arrival
	End   sim.Time // last completion

	// Sojourn is the arrival-to-completion latency distribution; on an
	// open-loop tenant this includes time spent queued behind the
	// tenant's own backlog, which closed-loop harnesses cannot see.
	Sojourn *stats.Histogram

	Compliant   int64 // requests with sojourn <= SLO (when SLO > 0)
	PeakBacklog int   // largest generated-but-unclaimed backlog observed
	Bursts      int64 // injected arrival spikes (faults.SiteTenantBurst)

	// Lib is the tenant's UserLib degradation counters (BypassD
	// tenants only; zero value otherwise).
	Lib userlib.Stats
}

// Elapsed is the tenant's active window.
func (r *Result) Elapsed() sim.Time { return r.End - r.Start }

// IOPS reports achieved throughput over the active window.
func (r *Result) IOPS() float64 { return stats.Throughput(r.Ops, r.Elapsed()) }

// Bandwidth reports achieved bytes/sec over the active window.
func (r *Result) Bandwidth() float64 { return stats.BytesPerSec(r.Bytes, r.Elapsed()) }

// Compliance reports the fraction of requests inside the SLO, in
// percent; 100 when no SLO was set.
func (r *Result) Compliance() float64 {
	if r.Tenant.SLO <= 0 || r.Ops == 0 {
		return 100
	}
	return 100 * float64(r.Compliant) / float64(r.Ops)
}

// request is one generated arrival.
type request struct {
	at    sim.Time
	off   int64
	write bool
}

// tenantState is the generator→worker hand-off queue. The simulation
// runs one goroutine at a time, so plain fields suffice.
type tenantState struct {
	queue   []request
	head    int
	genDone bool
	abort   bool
	more    *sim.Cond
}

func (t *Tenant) validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenants: tenant needs a name")
	}
	if t.BS <= 0 || t.BS%storage.SectorSize != 0 {
		return fmt.Errorf("tenants: %s: block size %d not sector aligned", t.Name, t.BS)
	}
	if t.FileBytes < int64(t.BS) {
		return fmt.Errorf("tenants: %s: file smaller than one request", t.Name)
	}
	if t.RateOps <= 0 {
		return fmt.Errorf("tenants: %s: rate must be positive", t.Name)
	}
	if t.Ops <= 0 {
		return fmt.Errorf("tenants: %s: ops must be positive", t.Name)
	}
	if !workload.ValidProcess(t.Arrival) {
		return fmt.Errorf("tenants: %s: unknown arrival process %q", t.Name, t.Arrival)
	}
	return nil
}

// RunCountedWorkers executes a scenario on one freshly booted system
// and returns per-tenant results in tenant order, plus the number of
// simulator events dispatched — the numerator of the throughput
// suite's events/sec metric. The setup phase (mkdirs, file
// preallocation, syncs, process creation) always runs coupled; on a
// multi-device scenario Machine.Drive then runs the traffic phase
// under the simulator's parallel drain on up to workers host
// goroutines (workers < 1 counts as 1). Results are byte-identical at
// every worker count; single-device scenarios never arm and keep
// their historical coupled schedule.
func RunCountedWorkers(seed int64, sc Scenario, workers int) ([]*Result, uint64, error) {
	res, s, err := runSim(seed, sc, workers)
	if err != nil {
		return nil, 0, err
	}
	return res, s.Processed(), nil
}

// runSim is RunCountedWorkers returning the run's simulator, shut
// down, so tests can read all of its dispatch counters.
func runSim(seed int64, sc Scenario, workers int) ([]*Result, *sim.Sim, error) {
	if len(sc.Tenants) == 0 {
		return nil, nil, fmt.Errorf("tenants: scenario %q has no tenants", sc.Name)
	}
	ndev := sc.NumDevices()
	for i := range sc.Tenants {
		if err := sc.Tenants[i].validate(); err != nil {
			return nil, nil, err
		}
		if ndev > 1 && sc.Tenants[i].Engine == core.EngineSPDK {
			// SPDK claims a device exclusively through the node-0
			// driver; it has no multi-device story here.
			return nil, nil, fmt.Errorf("tenants: %s: SPDK tenants need a single-device scenario", sc.Tenants[i].Name)
		}
	}
	inj, err := faults.New(sc.Faults, seed)
	if err != nil {
		return nil, nil, err
	}
	capacity := sc.Capacity
	if capacity == 0 {
		// Auto-size every device to the largest per-device demand so
		// striping never changes a tenant's file layout headroom. At
		// one device this is exactly the historical sum-of-all formula.
		var need int64
		for d := 0; d < ndev; d++ {
			var devNeed int64 = 64 << 20
			for ti, t := range sc.Tenants {
				if sc.placement(ti) == d {
					devNeed += t.FileBytes
				}
			}
			if devNeed > need {
				need = devNeed
			}
		}
		capacity = need*3/2 + (64 << 20)
		capacity = (capacity + storage.SectorSize - 1) &^ (storage.SectorSize - 1)
	}
	sys, err := core.Boot(core.Config{Capacity: capacity, Devices: ndev,
		Observers: kernel.Observers{Faults: inj, Trace: sc.Trace, Metrics: sc.Metrics}})
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()
	for _, n := range sys.M.Nodes {
		n.Dev.SetArbiter(device.ArbiterByName(sc.Arbiter))
	}

	results := make([]*Result, len(sc.Tenants))
	procs := make([]*kernel.Process, len(sc.Tenants))
	for i := range sc.Tenants {
		results[i] = &Result{Tenant: sc.Tenants[i], Sojourn: stats.NewHistogram()}
	}
	// Tenant pipelines are device-affine (everything a tenant does
	// happens on its device's shard), which is exactly the confinement
	// contract of the parallel drain Drive arms once setup is done.
	err = sys.M.Drive("tenants-setup", workers, func(p *sim.Proc, fail func(error)) error {
		// One superuser process per device: a process's file-system
		// view is its node's mount, so each device gets its own
		// /tenants tree. At one device this is the historical setup
		// sequence, event for event.
		roots := make([]*kernel.Process, ndev)
		for d := 0; d < ndev; d++ {
			roots[d] = sys.NewProcessOn(ext4.Root, d)
			if err := roots[d].Mkdir(p, "/tenants", 0o777); err != nil {
				return err
			}
		}
		for ti := range sc.Tenants {
			t := &sc.Tenants[ti]
			if err := fio.SetupFile(p, sys, roots[sc.placement(ti)], tenantPath(ti), t.Engine, t.FileBytes); err != nil {
				return err
			}
		}
		for d := 0; d < ndev; d++ {
			if err := roots[d].Sync(p); err != nil {
				return err
			}
		}
		for ti := range sc.Tenants {
			// Each tenant is its own process: own address space, own
			// PASID, own QoS class on every queue it registers — bound
			// to the device the striping policy placed it on.
			pr := sys.NewProcessOn(ext4.Root, sc.placement(ti))
			pr.QoS = sc.Tenants[ti].QoS
			procs[ti] = pr
			startTenant(sys, pr, &sc.Tenants[ti], ti, seed, results[ti], fail)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for ti := range sc.Tenants {
		if sc.Tenants[ti].Engine == core.EngineBypassD {
			results[ti].Lib = sys.Lib(procs[ti]).Stats
		}
	}
	return results, sys.Sim, nil
}

func tenantPath(ti int) string { return fmt.Sprintf("/tenants/t%d", ti) }

// startTenant spawns one tenant's generator and its QD service
// workers on the scenario's simulation. The tenant's procs run on its
// device's event shard, keeping each device's whole stream — arrivals,
// submissions, completions — in one lane of the deterministic merge.
func startTenant(sys *core.System, pr *kernel.Process, t *Tenant, ti int, seed int64, res *Result, fail func(error)) {
	shard := sys.M.Nodes[pr.Node()].Shard
	st := &tenantState{more: sys.Sim.NewCond()}
	path := tenantPath(ti)
	writable := t.WriteFrac > 0
	qd := t.QD
	if qd < 1 {
		qd = 1
	}
	reg := sys.M.Metrics
	mOps := reg.Counter("tenant_ops_total", "tenant", t.Name)
	mMiss := reg.Counter("tenant_slo_miss_total", "tenant", t.Name)
	mSojourn := reg.Histogram("tenant_sojourn_ns", "tenant", t.Name)

	sys.Sim.SpawnOn(shard, "tenant-gen-"+t.Name, func(g *sim.Proc) {
		// One stream per tenant, drawn only here: arrival instants and
		// request contents never depend on service order.
		rng := rand.New(rand.NewSource(seed*7919 + int64(ti)*104729 + 17))
		blocks := t.FileBytes / int64(t.BS)
		inj := sys.M.Faults
		burst := 0
		for i := 0; i < t.Ops && !st.abort; i++ {
			if burst > 0 {
				burst--
			} else {
				if gap := workload.Interarrival(rng, t.Arrival, t.RateOps); gap > 0 {
					g.Sleep(gap)
				}
				if inj.Fire(faults.SiteTenantBurst) {
					// Arrival spike: this and the next faults.BurstArrivals-1
					// requests land at one instant.
					burst = faults.BurstArrivals - 1
					res.Bursts++
				}
			}
			if res.Start == 0 {
				res.Start = g.Now()
			}
			st.queue = append(st.queue, request{
				at:    g.Now(),
				off:   rng.Int63n(blocks) * int64(t.BS),
				write: rng.Float64() < t.WriteFrac,
			})
			if backlog := len(st.queue) - st.head; backlog > res.PeakBacklog {
				res.PeakBacklog = backlog
			}
			st.more.Signal()
		}
		st.genDone = true
		st.more.Broadcast()
	})

	for wi := 0; wi < qd; wi++ {
		sys.Sim.SpawnOn(shard, fmt.Sprintf("tenant-%s-w%d", t.Name, wi), func(w *sim.Proc) {
			abort := func(err error) {
				fail(err)
				st.abort = true
				st.more.Broadcast()
			}
			io, err := sys.NewFileIO(w, pr, t.Engine)
			if err != nil {
				abort(err)
				return
			}
			fd, err := io.Open(w, path, writable)
			if err != nil {
				abort(err)
				return
			}
			buf := make([]byte, t.BS)
			for !st.abort {
				if st.head < len(st.queue) {
					req := st.queue[st.head]
					st.head++
					var err error
					if req.write {
						_, err = io.Pwrite(w, fd, buf, req.off)
					} else {
						_, err = io.Pread(w, fd, buf, req.off)
					}
					if err != nil {
						abort(fmt.Errorf("tenants: %s: %w", t.Name, err))
						return
					}
					now := w.Now()
					soj := now - req.at
					res.Sojourn.Add(soj)
					res.Ops++
					res.Bytes += int64(t.BS)
					mOps.Inc()
					mSojourn.Observe(soj)
					if t.SLO > 0 {
						if soj <= t.SLO {
							res.Compliant++
						} else {
							mMiss.Inc()
						}
					}
					if now > res.End {
						res.End = now
					}
					continue
				}
				if st.genDone {
					return
				}
				st.more.Wait(w)
			}
		})
	}
}
