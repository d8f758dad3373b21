package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median. The last closed-loop system carries the traffic.
const setupReps = 15

// epochWorkers is the host worker count of the multi-SSD workloads'
// epoch engine: no more than the host has cores (GOMAXPROCS is 2).
const epochWorkers = 2

// profileHz is the CPU profile rate of traced runs; the default 100 Hz
// leaves too few samples per layer in a few seconds of traffic.
const profileHz = 1000

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traceDir string // non-empty: a traced run writing its files here
	scale    int    // divides every op and user count; 1 is the benchmark's size
	workers  int    // epoch workers of the multi-SSD workloads
}

// The closed-loop workloads. A pass is a fixed amount of work; a run
// repeats passes until its time is up, and its first minPasses passes
// give the virtual figures, so those are a function of the seed alone.
var closedSpecs = map[string]closedSpec{
	// 4 threads of uniform-random 4 KiB preads over a 256 MiB file,
	// larger than the IOMMU paging-structure cache reach (32 x 2 MiB).
	"read4k": {threads: 4, fileBytes: 256 << 20, passOps: 200_000, minPasses: 3, readFrac: 1, sloNS: 10_000},
	// 2 threads of reads and in-place overwrites; thread 0's ops are
	// 50% reads, 30% overwrites, 20% log appends (kernel path) with an
	// fsync every 8th append.
	"rwlog": {threads: 2, fileBytes: 256 << 20, passOps: 100_000, minPasses: 6, readFrac: 0.5, writeFrac: 0.3, log: true, sloNS: 200_000},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"read4k", "rwlog", "fleet", "scaleout"}

// virtSummary is a run's virtual-clock figures; for a given seed they
// are identical on every run and at every epoch worker count.
type virtSummary struct {
	samples           int64
	meanNS            float64
	p50, p99, p999    int64 // ns
	readP99, fsyncP99 int64 // ns; 0 where the workload has no such calls
	kops              float64
	sloPct            float64
}

// outcome is one run's result line plus what the smoke test inspects.
type outcome struct {
	attempted, failed int64
	checks            []string // failed correctness checks
	metrics           map[string]float64
	virt              virtSummary
	notes             []string

	// traced runs
	phaseNS    [4]float64 // mean virtual ns per traced call and Fig. 5 phase
	measuredNS float64    // the mean those phases must sum to
	profile    map[string]int64
	profileN   int64
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// abort marks a run stopped by an error: every op attempted, at least
// the one that failed, counts as failed.
func (o *outcome) abort(err error) {
	o.attempted = max(o.attempted, 1)
	o.failed = o.attempted
	o.fail("run aborted: %v", err)
}

func run(cfg config) (*outcome, error) {
	if cfg.scale < 1 {
		cfg.scale = 1
	}
	if cfg.workers < 1 {
		cfg.workers = epochWorkers
	}
	if spec, ok := closedSpecs[cfg.workload]; ok {
		spec.passOps /= cfg.scale
		spec.fileBytes = max(spec.fileBytes/int64(cfg.scale)&^(1<<20-1), 8<<20)
		if cfg.traceDir != "" {
			return traceClosed(cfg, spec)
		}
		return runClosed(cfg, spec)
	}
	if cfg.workload == "fleet" || cfg.workload == "scaleout" {
		if cfg.traceDir != "" {
			return traceOpen(cfg)
		}
		return runOpen(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// --- closed loop: read4k, rwlog ---------------------------------------

// runClosed is the untraced run behind the end-to-end metrics.
func runClosed(cfg config, spec closedSpec) (*outcome, error) {
	clk := newHostClock(cfg)
	var r *closedRun
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.m.close()
		}
		clk.tick()
		var err error
		if r, err = setupClosed(spec, cfg.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, r.phases.total())
	}
	defer r.m.close()

	o := &outcome{}
	var rates []float64
	var recorded []*passStats
	start := time.Now()
	for pass := 0; pass < spec.minPasses || time.Since(start).Seconds() < cfg.seconds; pass++ {
		clk.tick()
		ps, err := r.runPass(cfg.seed, pass, pass < spec.minPasses, nil)
		o.attempted += ps.calls
		o.failed += ps.failed
		if err != nil {
			o.abort(err)
			break
		}
		rates = append(rates, float64(ps.calls)/ps.wall.Seconds())
		if pass < spec.minPasses {
			recorded = append(recorded, ps)
		}
	}
	clk.tick()
	if o.failed > 0 && len(o.checks) == 0 {
		o.fail("%d reads failed the data check", o.failed)
	}
	o.notes = append(o.notes, clk.note(setups, rates))
	o.virt = closedVirt(spec, recorded)
	o.metrics = map[string]float64{
		"setup_s":      median(clk.times(setups, 0)),
		"ops_per_s":    median(clk.rates(rates, setupReps)),
		"peak_rss_mb":  peakRSS(),
		"virt_kops":    o.virt.kops,
		"virt_slo_pct": o.virt.sloPct,
	}
	return o, nil
}

// closedVirt computes the virtual figures of the recorded passes.
func closedVirt(spec closedSpec, passes []*passStats) virtSummary {
	var all, reads, fsyncs []int64
	var calls, vDur int64
	for _, ps := range passes {
		calls += ps.calls
		vDur += ps.vDur
		for k, lat := range ps.lat {
			all = append(all, lat...)
			switch opKind(k) {
			case opRead:
				reads = append(reads, lat...)
			case opFsync:
				fsyncs = append(fsyncs, lat...)
			}
		}
	}
	for _, s := range [][]int64{all, reads, fsyncs} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	within := sort.Search(len(all), func(i int) bool { return all[i] > spec.sloNS })
	return virtSummary{
		samples:  int64(len(all)),
		meanNS:   meanOf(all),
		p50:      percentile(all, 50),
		p99:      percentile(all, 99),
		p999:     percentile(all, 99.9),
		readP99:  percentile(reads, 99),
		fsyncP99: percentile(fsyncs, 99),
		kops:     ratio(float64(calls), float64(vDur)) * 1e6,
		sloPct:   100 * ratio(float64(within), float64(calls)),
	}
}

// traceClosed is the traced run behind the per-layer metrics: an
// untraced setup and minPasses passes for the host-side figures, then
// the same setup and passes with tracing, metrics and a CPU profile.
func traceClosed(cfg config, spec closedSpec) (*outcome, error) {
	o := &outcome{}
	clk := newHostClock(cfg)
	clk.tick()
	r, err := setupClosed(spec, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	clk.tick()
	h0 := readHost()
	var untraced []*passStats
	for pass := 0; pass < spec.minPasses; pass++ {
		ps, err := r.runPass(cfg.seed, pass, false, nil)
		if err != nil {
			r.m.close()
			return nil, err
		}
		o.attempted += ps.calls
		o.failed += ps.failed
		untraced = append(untraced, ps)
	}
	h1 := readHost()
	clk.tick()
	r.m.close()

	stop := observe()
	defer stop()
	log := newSpanLog()
	endRun := log.begin("run " + cfg.workload)
	endSetup := log.begin("setup")
	rt, err := setupClosed(spec, cfg.seed, log)
	endSetup()
	if err != nil {
		return nil, err
	}
	defer rt.m.close()
	before := snapshot()
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return nil, err
	}
	endTraffic := log.begin("traffic")
	var traced []*passStats
	for pass := 0; pass < spec.minPasses; pass++ {
		end := log.begin(fmt.Sprintf("pass %d", pass))
		ps, err := rt.runPass(cfg.seed, pass, true, log)
		end()
		o.attempted += ps.calls
		o.failed += ps.failed
		if err != nil {
			o.abort(err)
			break
		}
		traced = append(traced, ps)
	}
	endTraffic()
	pprof.StopCPUProfile()
	lc := snapshot().minus(before).layers()
	endRun()
	if o.failed > 0 && len(o.checks) == 0 {
		o.fail("%d reads failed the data check", o.failed)
	}

	var reqs []callSample
	for _, ps := range traced {
		reqs = append(reqs, ps.reqs...)
	}
	log.addRequests(reqs)
	o.virt = closedVirt(spec, traced)
	in := layerInputs{
		untraced: sumPasses(untraced),
		host:     h1.minus(h0),
		traced:   sumPasses(traced),
		counts:   lc,
		virt:     o.virt,
		setup:    r.phases,
		setupSp:  clk.speed(0),
		speed:    clk.speed(1),
	}
	if err := finishTraced(cfg, o, in, prof.Bytes(), log); err != nil {
		return nil, err
	}
	if lc.ioOps != in.traced.calls {
		o.fail("tracer saw %d calls, the benchmark issued %d", lc.ioOps, in.traced.calls)
	}
	return o, nil
}

// passTotals sums a run's passes.
type passTotals struct {
	calls, events, userW, fsyncs int64
	wall                         time.Duration
}

func sumPasses(passes []*passStats) passTotals {
	var t passTotals
	for _, ps := range passes {
		t.calls += ps.calls
		t.events += int64(ps.events)
		t.userW += ps.userW
		t.fsyncs += ps.fsyncs
		t.wall += ps.wall
	}
	return t
}

// --- open loop: fleet, scaleout ---------------------------------------

// openPass runs the workload once on a fresh system; probe runs the
// same fleet or scenario at minimum load (1 request per device, 1 op
// per tenant), which is its setup cost.
func openPass(cfg config, probe bool) (openLoop, time.Duration, error) {
	start := time.Now()
	var res openLoop
	var err error
	switch cfg.workload {
	case "fleet":
		// 2^20 users; a pass is 2^18 arrivals, so a run has several.
		users := uint64(1<<20) / uint64(cfg.scale)
		requests := int(users / 4)
		if probe {
			requests = 2
		}
		res, err = runFleet(cfg.seed, users, requests, cfg.workers)
	case "scaleout":
		// Hogs issue 3x the victims' ops at 3x their rate, so both
		// classes share the devices for the whole run.
		victim := 10_000 / cfg.scale
		hog := 3 * victim
		if probe {
			victim, hog = 1, 1
		}
		res, err = runScaleout(cfg.seed, victim, hog, cfg.workers)
	}
	return res, time.Since(start), err
}

// checkOpen applies the workload's correctness checks to one pass.
func checkOpen(o *outcome, workload string, r openLoop) {
	switch workload {
	case "fleet":
		if shed := r.shedArrival + r.shedQueue; r.offered != r.completed+shed {
			o.fail("fleet: offered %d != completed %d + shed %d", r.offered, r.completed, shed)
		}
		if r.completed == 0 {
			o.fail("fleet: no request completed")
		}
	case "scaleout":
		if len(r.short) > 0 {
			o.fail("scaleout: tenants short of their op count: %v", r.short)
		}
	}
}

func openVirt(r openLoop) virtSummary {
	return virtSummary{
		samples: r.lat.count,
		meanNS:  r.lat.mean,
		p50:     r.lat.p50,
		p99:     r.lat.p99,
		p999:    r.lat.p999,
		kops:    ratio(float64(r.completed), float64(r.window)) * 1e6,
		sloPct:  100 * ratio(float64(r.sloMet), float64(r.sloOffered)),
	}
}

// runOpen is the untraced run behind the end-to-end metrics. Every pass
// replays the same seed, so each must reproduce the first exactly.
func runOpen(cfg config) (*outcome, error) {
	clk := newHostClock(cfg)
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		clk.tick()
		_, wall, err := openPass(cfg, true)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, wall.Seconds())
	}
	setup := median(setups)

	o := &outcome{}
	var rates []float64
	var first openLoop
	start := time.Now()
	for pass := 0; pass < 1 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		clk.tick()
		r, wall, err := openPass(cfg, false)
		if err != nil {
			o.attempted += r.offered
			o.abort(err)
			break
		}
		o.attempted += r.offered
		checkOpen(o, cfg.workload, r)
		if pass == 0 {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			o.fail("pass %d did not reproduce pass 0 at the same seed", pass)
		}
		rates = append(rates, float64(r.offered)/trafficSeconds(wall, setup))
	}
	clk.tick()
	o.notes = append(o.notes, clk.note(setups, rates))
	o.virt = openVirt(first)
	o.metrics = map[string]float64{
		"setup_s":      median(clk.times(setups, 0)),
		"ops_per_s":    median(clk.rates(rates, setupReps)),
		"peak_rss_mb":  peakRSS(),
		"virt_kops":    o.virt.kops,
		"virt_slo_pct": o.virt.sloPct,
	}
	return o, nil
}

// trafficSeconds is a full run's wall time minus its setup, the part
// that carries the offered load.
func trafficSeconds(wall time.Duration, setup float64) float64 {
	if t := wall.Seconds() - setup; t > 0 {
		return t
	}
	return wall.Seconds()
}

// traceOpen is the traced run: an untraced probe and pass for the
// host-side figures, then a traced probe and pass.
func traceOpen(cfg config) (*outcome, error) {
	o := &outcome{}
	clk := newHostClock(cfg)
	clk.tick()
	_, probeWall, err := openPass(cfg, true)
	if err != nil {
		return nil, err
	}
	clk.tick()
	h0 := readHost()
	ru, wall, err := openPass(cfg, false)
	if err != nil {
		return nil, err
	}
	h1 := readHost()
	clk.tick()

	stop := observe()
	defer stop()
	log := newSpanLog()
	endRun := log.begin("run " + cfg.workload)
	end := log.begin("setup (probe run)")
	_, _, err = openPass(cfg, true)
	end()
	if err != nil {
		return nil, err
	}
	before := snapshot()
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return nil, err
	}
	end = log.begin("traffic (full run, setup included)")
	r, tracedWall, err := openPass(cfg, false)
	end()
	pprof.StopCPUProfile()
	lc := snapshot().minus(before).layers()
	endRun()
	o.attempted = r.offered
	if err != nil {
		o.abort(err)
	}
	checkOpen(o, cfg.workload, r)
	if !reflect.DeepEqual(r, ru) {
		o.fail("traced run did not reproduce the untraced run's virtual results")
	}
	o.virt = openVirt(r)
	o.notes = append(o.notes, "tracing degrades the epoch engine to 1 worker (ArmParallel); the traced pass ran on 1 worker, the untraced on "+fmt.Sprint(cfg.workers))
	in := layerInputs{
		untraced: passTotals{calls: ru.offered, events: int64(ru.events), wall: wall - probeWall},
		host:     h1.minus(h0),
		traced:   passTotals{calls: r.offered, events: int64(r.events), wall: tracedWall - probeWall},
		counts:   lc,
		virt:     o.virt,
		open:     &r,
		probeS:   probeWall.Seconds(),
		setupSp:  clk.speed(0),
		speed:    clk.speed(1),
	}
	if err := finishTraced(cfg, o, in, prof.Bytes(), log); err != nil {
		return nil, err
	}
	return o, nil
}

// --- per-layer metrics ------------------------------------------------

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	untraced passTotals // untraced traffic: host timers
	host     hostDelta  // untraced traffic: Go runtime
	traced   passTotals // traced traffic
	counts   layerCounts
	virt     virtSummary
	setup    setupPhases // closed loop: one untraced setup
	open     *openLoop   // open loop: the traced run's results
	probeS   float64     // open loop: one untraced setup probe, seconds
	setupSp  float64     // host speed during the untraced set-up (hostClock)
	speed    float64     // host speed during the untraced traffic
}

// layerMetrics computes every per-layer metric; layers a workload does
// not exercise read 0.
func layerMetrics(in layerInputs, profile map[string]int64, profileN int64, overheadPct float64) map[string]float64 {
	lc := in.counts
	ops := float64(in.traced.calls)
	uops := float64(in.untraced.calls)
	trans := float64(lc.pwcHits + lc.pwcMisses)
	phaseTotal := float64(lc.phaseNS[0] + lc.phaseNS[1] + lc.phaseNS[2] + lc.phaseNS[3])
	m := map[string]float64{
		"sim.events":            float64(in.traced.events),
		"sim.events_per_op":     ratio(float64(in.traced.events), ops),
		"sim.host_ns_per_event": ratio(float64(in.untraced.wall.Nanoseconds()), float64(in.untraced.events)) * in.speed,

		"runtime.gc_cpu_pct":         100 * ratio(in.host.gcCPU, in.host.busyCPU),
		"runtime.alloc_bytes_per_op": ratio(float64(in.host.allocBytes), uops),
		"runtime.allocs_per_op":      ratio(float64(in.host.allocs), uops),

		"device.cmds_per_op":        ratio(float64(lc.deviceCmds), ops),
		"device.write_amp":          ratio(float64(lc.deviceWriteBytes), float64(in.traced.userW)),
		"device.flushes_per_fsync":  ratio(float64(lc.deviceFlushes), float64(in.traced.fsyncs)),
		"userlib.submit_share_pct":  100 * ratio(float64(lc.phaseNS[0]), phaseTotal),
		"iommu.translate_share_pct": 100 * ratio(float64(lc.phaseNS[1]), phaseTotal),
		"device.media_share_pct":    100 * ratio(float64(lc.phaseNS[2]), phaseTotal),
		"nvme.complete_share_pct":   100 * ratio(float64(lc.phaseNS[3]), phaseTotal),

		"iommu.translations_per_op":   ratio(trans, ops),
		"iommu.walks_per_translation": ratio(float64(lc.walks), trans),
		"iommu.pwc_hit_pct":           100 * ratio(float64(lc.pwcHits), trans),
		"iommu.iotlb_hit_pct":         100 * ratio(float64(lc.iotlbHits), float64(lc.iotlbHits+lc.iotlbMisses)),
		"userlib.direct_pct":          100 * ratio(float64(lc.libDirect), float64(lc.libDirect+lc.libKernel)),
		"userlib.retries":             float64(lc.libRetries),
		"userlib.refmaps":             float64(lc.libRefmaps),
		"ext4.commits_per_fsync":      ratio(float64(lc.ext4Commits), float64(in.traced.fsyncs)),
		"kernel.block_retries":        float64(lc.blockRetries),
		"core.boot_s":                 in.setup.boot * in.setupSp,
		"core.fill_s":                 in.setup.fill * in.setupSp,
		"core.open_s":                 in.setup.open * in.setupSp,
		"frontend.shed_arrival_pct":   0,
		"frontend.shed_queue_pct":     0,
		"frontend.peak_backlog":       0,
		"frontend.users_served_pct":   0,
		"frontend.setup_s":            0,
		"tenants.victim_peak_backlog": 0,
		"tenants.hog_mb_per_s":        0,
		"tenants.setup_s":             0,
		"trace.overhead_pct":          overheadPct,
		"profile.samples":             float64(profileN),
		"virt.samples":                float64(in.virt.samples),
		"virt.p99_over_p50":           ratio(float64(in.virt.p99), float64(in.virt.p50)),
		"virt.p999_over_p50":          ratio(float64(in.virt.p999), float64(in.virt.p50)),
	}
	if r := in.open; r != nil {
		if r.users > 0 {
			m["frontend.shed_arrival_pct"] = 100 * ratio(float64(r.shedArrival), float64(r.offered))
			m["frontend.shed_queue_pct"] = 100 * ratio(float64(r.shedQueue), float64(r.offered))
			m["frontend.peak_backlog"] = float64(r.peakBacklog)
			m["frontend.users_served_pct"] = 100 * ratio(float64(r.usersServed), float64(r.users))
			m["frontend.setup_s"] = in.probeS * in.setupSp
		} else {
			m["tenants.victim_peak_backlog"] = float64(r.victimPeakBacklog)
			m["tenants.hog_mb_per_s"] = ratio(float64(r.hogBytes), float64(r.hogWindow)) * 1e3
			m["tenants.setup_s"] = in.probeS * in.setupSp
		}
	}
	for _, g := range profileGroups {
		m[cpuMetric(g)] = 100 * ratio(float64(profile[g]), float64(profileN))
	}
	return m
}

// cpuMetric names a profile group's share: device.cpu_pct for a
// layer, sim.epoch_cpu_pct for a part of one.
func cpuMetric(group string) string {
	if strings.Contains(group, ".") {
		return group + "_cpu_pct"
	}
	return group + ".cpu_pct"
}

// finishTraced computes the per-layer metrics and the checks of a
// traced run and writes its trace and layer files.
func finishTraced(cfg config, o *outcome, in layerInputs, prof []byte, log *spanLog) error {
	shares, n, err := profileShares(prof)
	if err != nil {
		return err
	}
	o.profile, o.profileN = shares, n
	untracedRate := ratio(float64(in.untraced.calls), in.untraced.wall.Seconds())
	tracedRate := ratio(float64(in.traced.calls), in.traced.wall.Seconds())
	overhead := 100 * ratio(untracedRate-tracedRate, untracedRate)
	o.metrics = layerMetrics(in, shares, n, overhead)

	// The Fig. 5 phases must account for the mean virtual latency of
	// the traced calls (closed loop: the benchmark's own clock; open
	// loop: the tracer's latency histogram), as table T6 requires.
	lc := in.counts
	o.measuredNS = ratio(float64(lc.latSum), float64(lc.latN))
	if in.open == nil {
		o.measuredNS = in.virt.meanNS
	}
	for i := range o.phaseNS {
		o.phaseNS[i] = ratio(float64(lc.phaseNS[i]), float64(lc.ioOps))
	}
	sum := o.phaseNS[0] + o.phaseNS[1] + o.phaseNS[2] + o.phaseNS[3]
	if math.Abs(sum-o.measuredNS) > 0.01*o.measuredNS {
		o.fail("Fig. 5 phases sum to %.1f ns, the measured mean is %.1f ns", sum, o.measuredNS)
	}
	return writeTraced(cfg, o, log, prof)
}

// writeTraced writes W.trace.json, W.layers.json and the raw CPU
// profile W.cpu.pprof into cfg.traceDir.
func writeTraced(cfg config, o *outcome, log *spanLog, prof []byte) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.traceDir, cfg.workload)
	if err := log.write(base+".trace.json", "bench "+cfg.workload); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	groups := map[string]any{}
	for _, g := range profileGroups {
		groups[g] = map[string]any{"samples": o.profile[g], "pct": o.metrics[cpuMetric(g)]}
	}
	v := o.virt
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"metrics":  unitValues(o.metrics, perLayer),
		"virtual": map[string]any{
			"samples": v.samples, "mean_us": v.meanNS / 1e3,
			"p50_us": float64(v.p50) / 1e3, "p99_us": float64(v.p99) / 1e3, "p999_us": float64(v.p999) / 1e3,
			"read_p99_us": float64(v.readP99) / 1e3, "fsync_p99_us": float64(v.fsyncP99) / 1e3,
			"kops": v.kops, "slo_pct": v.sloPct,
		},
		"phases_ns": map[string]any{
			"submit": o.phaseNS[0], "translate": o.phaseNS[1], "media": o.phaseNS[2], "complete": o.phaseNS[3],
			"measured_mean": o.measuredNS,
		},
		"profile": map[string]any{"samples": o.profileN, "hz": profileHz, "groups": groups},
		"checks":  o.checks,
		"notes":   o.notes,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", data, 0o644)
}

// --- host measurements ------------------------------------------------

// Host times are reported on a nominal host's scale. On a shared VM
// host speed drifts by tens of percent over minutes, and the
// simulator's rate drifts with it. A reference kernel timed in the same
// process right before and right after each timed phase follows that
// drift: scaling each pass by the geometric mean of the two brought
// the run-to-run spread of the median pass rate, over 20 runs per
// workload, from 16% to 6% (read4k), 15% to 5% (fleet) and 10% to 7%
// (scaleout).
const (
	refRoundTrips = 100_000   // one reference measurement, about 50 ms
	refNominal    = 2_000_000 // the nominal host's reference rate, round trips/s
)

// refRate times n round trips of the reference kernel: two goroutines
// handing a token back and forth over unbuffered channels, the proc
// handoff that dominates the simulator's own host time. It reports
// round trips/s.
func refRate(n int) float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			<-ping
			pong <- struct{}{}
		}
	}()
	for i := 0; i < n; i++ {
		ping <- struct{}{}
		<-pong
	}
	return float64(n) / time.Since(start).Seconds()
}

// hostClock brackets a run's timed phases with reference measurements.
type hostClock struct {
	trips int // round trips per reference measurement
	ref   []float64
}

// newHostClock sizes the reference measurement with the run.
func newHostClock(cfg config) *hostClock {
	return &hostClock{trips: refRoundTrips / cfg.scale}
}

// tick collects the garbage of earlier set-ups and passes, so no timed
// phase pays for another's allocations, then times the reference. Call
// it before every timed phase and once after the last.
func (c *hostClock) tick() {
	runtime.GC()
	runtime.GC() // a sync.Pool survives one collection
	c.ref = append(c.ref, refRate(c.trips))
}

// speed is the host's speed, relative to the nominal host, during the
// phase between ticks i and i+1.
func (c *hostClock) speed(i int) float64 {
	return math.Sqrt(c.ref[i]*c.ref[i+1]) / refNominal
}

// times puts phase durations on the nominal host's scale; phase k ran
// after tick first+k.
func (c *hostClock) times(raw []float64, first int) []float64 {
	out := make([]float64, len(raw))
	for k, x := range raw {
		out[k] = x * c.speed(first+k)
	}
	return out
}

// rates is times for phase rates.
func (c *hostClock) rates(raw []float64, first int) []float64 {
	out := make([]float64, len(raw))
	for k, x := range raw {
		out[k] = x / c.speed(first+k)
	}
	return out
}

// note reports the raw host figures behind setup_s and ops_per_s.
func (c *hostClock) note(setups, rates []float64) string {
	r := make([]string, len(rates))
	for i, x := range rates {
		r[i] = fmt.Sprintf("%.0f", x)
	}
	ref := median(append([]float64(nil), c.ref...))
	return fmt.Sprintf("host speed %.3f of nominal (median reference %.0f round trips/s over %d ticks); raw setup_s %.4f; raw ops/s per pass: %s",
		ref/refNominal, ref, len(c.ref), median(append([]float64(nil), setups...)), strings.Join(r, " "))
}

// peakRSS reports the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// startProfile starts a CPU profile at profileHz into w. Setting the
// rate first makes the runtime print a harmless "cannot set cpu
// profile rate" warning when pprof then asks for its default.
func startProfile(w *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(w)
}

// hostSnap is the Go runtime's allocation and CPU accounting at one
// phase boundary.
type hostSnap struct {
	allocBytes, allocs   uint64
	gcCPU, totalCPU, idl float64
}

type hostDelta struct {
	allocBytes, allocs uint64
	gcCPU, busyCPU     float64 // seconds
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return hostSnap{
		allocBytes: ms.TotalAlloc,
		allocs:     ms.Mallocs,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		idl:        s[2].Value.Float64(),
	}
}

func (b hostSnap) minus(a hostSnap) hostDelta {
	return hostDelta{
		allocBytes: b.allocBytes - a.allocBytes,
		allocs:     b.allocs - a.allocs,
		gcCPU:      b.gcCPU - a.gcCPU,
		busyCPU:    (b.totalCPU - b.idl) - (a.totalCPU - a.idl),
	}
}
