GO ?= go
FUZZTIME ?= 10s
FUZZ_TARGETS := ./internal/ext4:FuzzExtentTree ./internal/ext4:FuzzNamespace ./internal/experiments:FuzzReproSpec

.PHONY: all build test race vet bench bench-json bench-check parallel-equivalence profile fuzz check trace-smoke repro-smoke topology-smoke frontend-smoke faults-smoke golden-full clean

# The benchmarks the committed snapshot and the throughput gate track:
# the Fig. 6/9 harnesses, the headline 4 KiB read (steady-state and
# boot-inclusive), the 64 KiB steady-state read, the simulated-IOPS
# throughput family, and the frontend service tier. bench-check times
# the steady-state reads (STEADY_BENCH) apart from the rest
# (BATCH_BENCH; Direct4KRead unanchored would also match
# BootDirect4KRead).
BATCH_BENCH := Fig6LatBW|Fig9Scaling|BootDirect4KRead|SimThroughput|FrontendThroughput
STEADY_BENCH := ^Benchmark(Direct4KRead|Direct64KRead)$$
GATE_BENCH := $(BATCH_BENCH)|Direct4KRead|Direct64KRead

all: check

# bench/ is its own Go module, so the root ./... skips it. Building and
# vetting it here makes an internal API change that breaks
# bench/adapter.go fail `make check`, not only the benchmark run.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# Race coverage: the experiments package fans sweep cells and whole
# experiments out to goroutines (including runs under different fault
# profiles at once), the core teardown test recycles parallel
# machines through the shared buffer pools, and the metrics registry
# takes concurrent adds from parallel cells.
race:
	$(GO) test -race ./...

# vet also fails on unformatted files; gofmt -l walks bench/ too.
# deadcheck is the dead-path gate: it type-checks the module and fails
# on any func, method, struct field, const, var or type in a non-test
# file that only tests use (or nothing does). A use in bench/ counts.
# Deliberate test hooks go in cmd/deadcheck/allowlist.txt, one per
# line: the name as deadcheck prints it, then the reason.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) run ./cmd/deadcheck -allow cmd/deadcheck/allowlist.txt .
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-json regenerates the committed benchmark snapshot: the
# Fig. 6/9 harnesses, the 4 KiB and 64 KiB reads, the throughput family
# (single-queue, traced, tenant storm, and the four-SSD sharded core
# at 1 and 4 workers), and the frontend service tier at 1 and 2
# workers, with events/sec,
# wall-ns-per-event, and wall-ns-per-virtual-ns metrics. Set
# BASELINE=<old bench output file> to embed a before/after pair.
bench-json:
	$(GO) test -bench '$(GATE_BENCH)' -benchmem -run '^$$' . \
		| $(GO) run ./cmd/benchjson $(if $(BASELINE),-baseline $(BASELINE)) -o BENCH.json
	@echo wrote BENCH.json

# bench-check is the performance regression gate, in three parts:
#  1. allocation budgets — a steady-state 4 KiB BypassD read must stay
#     within single-digit allocs/op, a 64 KiB one at zero, and the
#     boot-inclusive path within its budget (Test*AllocBudget), with
#     every arbiter's steady-state
#     grant allocation-free (TestArbiterZeroAllocHotPath);
#  2. throughput — the gated benchmarks must stay within 25% of the
#     committed BENCH.json ns/op (benchjson -check, which takes
#     the min over -count 3 repetitions; min-of-N plus the tolerance
#     absorbs host noise, so only real regressions fail). The batch
#     rows run 5 iterations each. The two steady-state reads cost a
#     few hundred ns/op, so 5 of them would time mostly the fixed cost
#     of starting a run; they run 200,000 iterations each (about 0.1
#     and 0.2 s per repetition), which makes ns/op the settled mean
#     the snapshot records at the default benchtime;
#  3. parallel speedup (benchjson -speedup) — the four-SSD sharded
#     storm at -workers 4 must beat -workers 1 by >= 2.5x on
#     events/sec, checked on hosts with >= 4 CPUs; the two-SSD frontend
#     fleet at -workers 2 must not be slower than at -workers 1
#     (>= 1.0x), checked on hosts with >= 2 CPUs. Twelve runs on a
#     2-vCPU host measured 1.13-1.72x for it, and 0.75-1.67x before
#     the drain's per-shard state was padded to whole cache lines. On
#     hosts with fewer CPUs a floor is skipped with a printed notice:
#     the worker-invariance tests still pin correctness there.
# Opt-in pieces use BENCH_CHECK=1 so ordinary test runs never flake on
# cross-test allocation noise.
bench-check:
	BENCH_CHECK=1 $(GO) test -run 'AllocBudget' -count=1 -v .
	$(GO) test -run TestArbiterZeroAllocHotPath -count=1 -v ./internal/device
	{ $(GO) test -bench '$(BATCH_BENCH)' -benchmem -benchtime 5x -count 3 -run '^$$' . ; \
	  $(GO) test -bench '$(STEADY_BENCH)' -benchmem -benchtime 200000x -count 3 -run '^$$' . ; } \
		| $(GO) run ./cmd/benchjson -check BENCH.json \
			-speedup 'SimThroughputSharded/w4:SimThroughputSharded/w1:2.5' \
			-speedup 'FrontendThroughput/w2:FrontendThroughput/w1:1.0:2'

# parallel-equivalence is the tentpole determinism gate under the race
# detector: 20-seed randomized per-shard streams of the parallel drain
# at workers {1,2,4,8} against the coupled scheduler, the drain's rerun
# and coupled-API panic tests, the in-place sleep's rule and
# equivalence tests (which read the drain flag and other shards'
# heads), the Shutdown tests of lazily born coroutines (one born inside
# a drain, one never dispatched), plus the T7-T10 report and
# full-metrics invariance across worker counts. Any data race in the drain or any divergence from the
# coupled schedule fails this target.
parallel-equivalence:
	$(GO) test -race -count=1 -run 'ParallelEquivalence|ParallelDrain|Inline|Coroutine' ./internal/sim
	$(GO) test -race -count=1 -run 'WorkerInvariant' ./internal/experiments

# profile writes host CPU and allocation profiles of the Fig. 6
# harness (the heaviest sweep) for `go tool pprof`. Separate runs:
# -memprofilerate alongside -cpuprofile skews the CPU numbers.
profile:
	$(GO) test -bench Fig6LatBW -benchtime 10x -run '^$$' -cpuprofile cpu.prof .
	$(GO) test -bench Fig6LatBW -benchtime 10x -run '^$$' -memprofile mem.prof .
	@echo "wrote cpu.prof mem.prof — inspect with: go tool pprof cpu.prof"

# fuzz runs each native fuzz target for FUZZTIME (go test -fuzz takes
# exactly one target per invocation, hence the loop). Targets are
# pkg:FuzzName pairs.
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "== fuzzing $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test $$pkg -run $$name -fuzz "^$$name$$" -fuzztime $(FUZZTIME); \
	done

# trace-smoke runs experiments and a tenant scenario with per-run
# observers and validates what they emit with cmd/tracecheck (the
# Chrome trace-event JSON must parse, contain only X/M phases, and hold
# real spans). T6+F6 at -j 1 and -j 4 must print byte-identical
# metrics blocks and write byte-identical traces; the scenario path
# must honor -metrics, -trace and -json too.
trace-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$(GO) build -o $$tmp/tracecheck ./cmd/tracecheck; \
		for j in 1 4; do \
			$$tmp/bench -run T6,F6 -j $$j -trace $$tmp/t$$j.json -metrics > $$tmp/out$$j.txt; \
			sed -n '/^== metrics ==/,$$p' $$tmp/out$$j.txt > $$tmp/m$$j.txt; \
		done; \
		grep -q 'io_ops_total' $$tmp/m1.txt; \
		cmp $$tmp/m1.txt $$tmp/m4.txt; \
		cmp $$tmp/t1.json $$tmp/t4.json; \
		$$tmp/tracecheck -min 100 $$tmp/t1.json; \
		$$tmp/bench -tenants noisy-neighbor-wrr-8 -metrics -trace $$tmp/tn.json -json $$tmp/tn-run.json > $$tmp/tn.txt; \
		grep -q '== metrics ==' $$tmp/tn.txt; \
		grep -q '"tenant_ops_total' $$tmp/tn-run.json; \
		$$tmp/tracecheck -min 100 $$tmp/tn.json; \
		echo "trace-smoke ok"

# repro-smoke round-trips the anomaly-repro tool on the T7 cell the
# arbiter gate pins: the same spec must replay byte-identically at
# -j1 and -j2, and the replayed row must be the wrr victim cell. It
# then replays one quick T10 cell, which must print exactly one data
# row: a spec that pins a cell's key columns runs only that cell.
repro-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/repro ./cmd/bypassd-repro; \
		spec='T7:hogs=8,victim=bypassd,arbiter=wrr@seed=1'; \
		$$tmp/repro -j 2 "$$spec" > $$tmp/a.txt 2>/dev/null; \
		$$tmp/repro -j 1 "$$spec" > $$tmp/b.txt 2>/dev/null; \
		cmp $$tmp/a.txt $$tmp/b.txt; \
		grep -q 'wrr' $$tmp/a.txt; \
		grep -q 'derived seed: 1' $$tmp/a.txt; \
		$$tmp/repro 'T10:offered=3040,pool=8,policy=codel@seed=1' > $$tmp/t10.txt 2>/dev/null; \
		test "$$(sed -n '/^---/,$$p' $$tmp/t10.txt | tail -n +2 | grep -c .)" = 1; \
		echo "repro-smoke ok"

# topology-smoke boots the multi-SSD plane end to end: one quick
# 2-device T9 cell through the CLI's -devices flag. It catches
# topology boot regressions (DevID assignment, per-device mounts,
# shard merge) that unit tests of the pieces can miss.
topology-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -run T9 -devices 2 > $$tmp/out.txt; \
		grep -q 'weak scaling across SSDs' $$tmp/out.txt; \
		grep -Eq '^2 +4 ' $$tmp/out.txt; \
		echo "topology-smoke ok"

# frontend-smoke drives the service tier end to end through the CLI:
# the quick T10 cells must render byte-identically at -j1 and -j2, and
# a builtin fleet must run under the -frontend flag with its admission
# accounting visible. It catches wiring regressions (flag plumbing,
# fleet resolution, report shape) that the package tests can miss.
frontend-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -run T10 -j 1 > $$tmp/a.txt; \
		$$tmp/bench -run T10 -j 2 > $$tmp/b.txt; \
		cmp $$tmp/a.txt $$tmp/b.txt; \
		grep -q 'service tier over' $$tmp/a.txt; \
		$$tmp/bench -frontend fleet-token-2.0x > $$tmp/fleet.txt; \
		grep -q 'token admission' $$tmp/fleet.txt; \
		grep -q 'fleet' $$tmp/fleet.txt; \
		echo "frontend-smoke ok"

# faults-smoke pins the fault report end to end through the CLI: a
# chaos-profile F6 run must render byte-identically at -j1 and -j2,
# with a nonzero injected-fault total on stderr (tallied in the
# metrics registry) that is also -j invariant, and a tenant scenario
# must run under the tenant-storm profile and report its own tally.
faults-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -run F6 -faults chaos -j 1 > $$tmp/a.txt 2> $$tmp/a.err; \
		$$tmp/bench -run F6 -faults chaos -j 2 > $$tmp/b.txt 2> $$tmp/b.err; \
		cmp $$tmp/a.txt $$tmp/b.txt; \
		grep -Eq '^== injected faults: [1-9][0-9]* total \(profile "chaos"\)$$' $$tmp/a.err; \
		sed -n '/^== injected faults/,$$p' $$tmp/a.err > $$tmp/a.faults; \
		sed -n '/^== injected faults/,$$p' $$tmp/b.err > $$tmp/b.faults; \
		cmp $$tmp/a.faults $$tmp/b.faults; \
		$$tmp/bench -tenants noisy-neighbor-wrr-8 -faults tenant-storm > $$tmp/t.txt 2> $$tmp/t.err; \
		grep -q 'noisy-neighbor-wrr-8' $$tmp/t.txt; \
		grep -Eq '^== injected faults: [1-9][0-9]* total \(profile "tenant-storm"\)$$' $$tmp/t.err; \
		echo "faults-smoke ok"

# golden-full pins the paper-scale run: every section of a fresh
# `bypassd-bench -full` report must equal docs/results-full.md. T2
# (lines of Go) is dropped by experiment ID on both sides, since it
# counts the repository itself. Takes ~50 s on 2 cores.
golden-full:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
		$(GO) build -o $$tmp/bench ./cmd/bypassd-bench; \
		$$tmp/bench -full -j 2 -workers 2 -o $$tmp/full.md > /dev/null 2> $$tmp/full.err || { cat $$tmp/full.err; exit 1; }; \
		drop='/^### /{skip = ($$0 ~ /^### T2 — /)} !skip'; \
		awk "$$drop" docs/results-full.md > $$tmp/want.md; \
		awk "$$drop" $$tmp/full.md > $$tmp/got.md; \
		diff -u $$tmp/want.md $$tmp/got.md; \
		echo "golden-full ok"

# check is the default gate: build, vet, full tests (including the
# statistical tail-claim gates), the race detector over the whole
# tree, the allocation-budget gate, the parallel determinism gate,
# the repro-tool round trip, the 2-device topology smoke, the
# service-tier smoke, and the fault-report smoke.
check: build vet test race bench-check parallel-equivalence repro-smoke topology-smoke frontend-smoke faults-smoke

clean:
	$(GO) clean ./...
