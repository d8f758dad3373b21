package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

const blockSize = 4096

// closedSpec sizes a closed-loop workload on one SSD: threads each
// issue one FileIO call at a time (QD1 on their own queue pair) over a
// data file filled in setup. With log set, thread 0's ops not drawn as
// reads or overwrites are 4 KiB appends to its log; the other threads
// draw reads and overwrites only, in the same ratio. Only one thread
// touches file-system metadata: an ext4 commit yields inside its
// dirty-inode loop, and an inode dirtied meanwhile by another thread
// makes the commit index an unstaged block and panic.
type closedSpec struct {
	threads   int
	fileBytes int64
	passOps   int // workload ops per pass, across all threads
	minPasses int // passes always run; their calls give the virtual figures
	readFrac  float64
	writeFrac float64
	log       bool
	sloNS     int64 // per-call latency limit behind virt_slo_pct
}

// Log policy of rwlog: fsync after every logSyncEvery appends, unlink
// and recreate once the log reaches logMaxBytes.
const (
	logSyncEvery = 8
	logMaxBytes  = 16 << 20
)

// opKind classifies a FileIO call.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAppend
	opFsync
	numKinds
)

// oracle is the expected version of every data block. Thread t owns the
// blocks b with b % threads == t: it alone reads and overwrites them,
// so no overwrite can be in flight while its owner checks a read.
type oracle struct {
	threads int
	version []uint32
}

func newOracle(fileBytes int64, threads int) *oracle {
	return &oracle{threads: threads, version: make([]uint32, fileBytes/blockSize)}
}

// pick draws a uniformly random block owned by thread t.
func (o *oracle) pick(rng *rand.Rand, t int) int64 {
	per := int64(len(o.version) / o.threads)
	return rng.Int63n(per)*int64(o.threads) + int64(t)
}

// stamp writes block b's header (index, version) and trailer into buf.
func stamp(buf []byte, b int64, v uint32) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(b))
	binary.LittleEndian.PutUint64(buf[8:], uint64(v))
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], seal(b, v))
}

func seal(b int64, v uint32) uint64 {
	return uint64(b)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f ^ 0x5eed
}

// check reports whether buf holds block b at its expected version.
func (o *oracle) check(buf []byte, b int64) bool {
	v := o.version[b]
	return binary.LittleEndian.Uint64(buf[0:]) == uint64(b) &&
		binary.LittleEndian.Uint64(buf[8:]) == uint64(v) &&
		binary.LittleEndian.Uint64(buf[len(buf)-8:]) == seal(b, v)
}

// closedRun is one closed-loop workload on one booted system.
type closedRun struct {
	spec    closedSpec
	m       *machine
	oracle  *oracle
	logSize int64 // thread 0's log
	appends int
	phases  setupPhases
}

// setupPhases are the host seconds of one closed-loop setup.
type setupPhases struct{ boot, fill, open float64 }

func (s setupPhases) total() float64 { return s.boot + s.fill + s.open }

// setupClosed boots a system, fills the data file with stamped blocks
// at version 0, and opens every thread's FileIO with one warm read.
func setupClosed(spec closedSpec, seed int64, log *spanLog) (*closedRun, error) {
	r := &closedRun{spec: spec, oracle: newOracle(spec.fileBytes, spec.threads)}
	t0 := time.Now()
	end := log.begin("setup: boot")
	// Room for the data file, the log twice over (a rotated log's
	// blocks are freed at the next commit) and the file system's own
	// metadata; a tight device keeps the sparse store, and so the
	// process's memory, from growing as allocation walks free space.
	m, err := boot(spec.fileBytes + 2*logMaxBytes + 64<<20)
	end()
	if err != nil {
		return nil, err
	}
	r.m = m
	t1 := time.Now()
	end = log.begin("setup: fill")
	err = m.fill("/data", spec.fileBytes, func(b int64, buf []byte) { stamp(buf, b, 0) })
	end()
	if err != nil {
		m.close()
		return nil, fmt.Errorf("fill: %w", err)
	}
	t2 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	warm := func(t int) int64 { return r.oracle.pick(rng, t) * blockSize }
	end = log.begin("setup: open")
	err = m.open("/data", spec.threads, spec.writeFrac > 0, spec.log, warm)
	end()
	if err != nil {
		m.close()
		return nil, fmt.Errorf("open: %w", err)
	}
	t3 := time.Now()
	r.phases = setupPhases{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	return r, nil
}

// callSample is one FileIO call of a traced pass: its thread and kind,
// virtual start and end, and host start and end since the span log's
// epoch (all ns).
type callSample struct {
	thread       uint8
	kind         opKind
	vStart, vEnd int64
	hStart, hEnd int64
}

// passStats is what one pass of a closed-loop workload measured.
type passStats struct {
	calls  int64
	failed int64 // calls that failed a data check
	events uint64
	wall   time.Duration
	vDur   int64             // virtual ns from the first call to the last completion
	lat    [numKinds][]int64 // virtual ns per call, by kind (when recorded)
	userW  int64             // bytes the workload asked to write
	fsyncs int64
	reqs   []callSample // every call, when spans are recorded
}

// threadStats is one thread's share of a pass.
type threadStats struct {
	calls, failed, userW, fsyncs int64
	lat                          [numKinds][]int64
	reqs                         []callSample
	vStart, vEnd                 int64
}

// done accounts one finished call that started at virtual time v0 (and
// host time h0 when log is set).
func (ts *threadStats) done(th *thread, t int, kind opKind, v0, h0 int64, record bool, log *spanLog) {
	v1 := th.now()
	ts.calls++
	if record {
		ts.lat[kind] = append(ts.lat[kind], v1-v0)
	}
	if log != nil {
		ts.reqs = append(ts.reqs, callSample{thread: uint8(t), kind: kind, vStart: v0, vEnd: v1, hStart: h0, hEnd: int64(log.since())})
	}
}

// runPass runs one pass: each thread issues passOps/threads ops drawn
// from a stream seeded by (seed, pass, thread). record keeps every
// call's virtual latency; a non-nil log also keeps every call's host
// timestamps.
func (r *closedRun) runPass(seed int64, pass int, record bool, log *spanLog) (*passStats, error) {
	spec := r.spec
	per := spec.passOps / spec.threads
	locals := make([]threadStats, spec.threads)
	start := time.Now()
	events, err := r.m.pass(func(t int, th *thread) error {
		ts := &locals[t]
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)*7919 + int64(t)))
		buf := make([]byte, blockSize)
		hnow := func() int64 {
			if log == nil {
				return 0
			}
			return int64(log.since())
		}
		ts.vStart = th.now()
		for i := 0; i < per; i++ {
			x := rng.Float64()
			if !th.hasLog() {
				x *= spec.readFrac + spec.writeFrac
			}
			switch {
			case x < spec.readFrac:
				b := r.oracle.pick(rng, t)
				v0, h0 := th.now(), hnow()
				if err := th.read(buf, b*blockSize); err != nil {
					return err
				}
				ts.done(th, t, opRead, v0, h0, record, log)
				if !r.oracle.check(buf, b) {
					ts.failed++
				}
			case x < spec.readFrac+spec.writeFrac:
				b := r.oracle.pick(rng, t)
				v := r.oracle.version[b] + 1
				stamp(buf, b, v)
				v0, h0 := th.now(), hnow()
				if err := th.write(buf, b*blockSize); err != nil {
					return err
				}
				ts.done(th, t, opWrite, v0, h0, record, log)
				r.oracle.version[b] = v
				ts.userW += blockSize
			default:
				if r.logSize >= logMaxBytes {
					if err := th.rotateLog(); err != nil {
						return fmt.Errorf("rotate log: %w", err)
					}
					r.logSize = 0
				}
				off := r.logSize
				v0, h0 := th.now(), hnow()
				if err := th.appendLog(buf, off); err != nil {
					return err
				}
				ts.done(th, t, opAppend, v0, h0, record, log)
				r.logSize += blockSize
				ts.userW += blockSize
				if r.appends++; r.appends%logSyncEvery == 0 {
					v0, h0 := th.now(), hnow()
					if err := th.fsyncLog(); err != nil {
						return err
					}
					ts.done(th, t, opFsync, v0, h0, record, log)
					ts.fsyncs++
				}
			}
		}
		ts.vEnd = th.now()
		return nil
	})
	ps := &passStats{events: events, wall: time.Since(start)}
	var vStart, vEnd int64
	for t := range locals {
		ts := &locals[t]
		ps.calls += ts.calls
		ps.failed += ts.failed
		ps.userW += ts.userW
		ps.fsyncs += ts.fsyncs
		for k := range ts.lat {
			ps.lat[k] = append(ps.lat[k], ts.lat[k]...)
		}
		ps.reqs = append(ps.reqs, ts.reqs...)
		if t == 0 || ts.vStart < vStart {
			vStart = ts.vStart
		}
		vEnd = max(vEnd, ts.vEnd)
	}
	ps.vDur = vEnd - vStart
	return ps, err
}
