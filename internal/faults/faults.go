// Package faults is the deterministic fault-injection plane of the
// simulated machine. An Injector evaluates named injection sites
// ("device/optane-p5800x/media", "kernel/revoke", ...) against a rule
// list; every decision is driven by a seeded PRNG plus per-rule
// counters, so a run with a fixed seed and profile replays
// byte-for-byte. A nil *Injector is valid and never fires, which keeps
// the disabled configuration structurally identical to a build without
// fault injection: no RNG draws, no time charges, no allocations.
//
// An Injector is a per-machine value: harnesses build one with New
// (from a builtin profile name and a seed) and boot the machine with
// it (core.Config, kernel.Observers); the machine threads it into the
// device, IOMMU, file system and UserLib, and binds its own metrics
// registry to it. The simulation runs one goroutine at a time per
// machine, so the injector needs no locks for its own counters. The
// package keeps no mutable state of its own; the one fault tally is
// the faults_injected_total{site} series of the machine's registry,
// which every fire adds to.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Injection sites with fixed names. Device sites are per-device; see
// DeviceSite.
const (
	SiteIOMMUFault      = "iommu/fault"      // spurious translation fault
	SiteIOMMUInvalidate = "iommu/invalidate" // IOTLB invalidation storm
	SiteIOMMUATSDelay   = "iommu/ats_delay"  // delayed ATS response

	SiteKernelRevoke   = "kernel/revoke"    // revoke direct access to the inode
	SiteKernelFmapZero = "kernel/fmap_zero" // fmap() declines with VBA 0

	SiteQueueFull     = "userlib/queue_full"     // submission backpressure
	SiteRefmapExhaust = "userlib/refmap_exhaust" // give up refmap retries

	// SiteTenantBurst fires in the tenancy plane's open-loop
	// generators: a hit compresses the next run of arrivals to a
	// single instant (a correlated arrival spike), the classic way
	// multi-tenant SLOs die.
	SiteTenantBurst = "tenants/burst"

	SiteCrashPreJournal     = "ext4/crash_pre_journal"     // before any journal write
	SiteCrashPreCommit      = "ext4/crash_pre_commit"      // log written, no commit record
	SiteCrashPostCommit     = "ext4/crash_post_commit"     // committed, not checkpointed
	SiteCrashPostCheckpoint = "ext4/crash_post_checkpoint" // checkpointed, journal not clean
)

// BurstArrivals is the number of consecutive arrivals a
// SiteTenantBurst hit compresses to a single instant. The tenancy
// plane and the frontend service tier both use it, so -faults
// tenant-storm stresses the two tiers the same way.
const BurstArrivals = 32

// Device site kinds (third path component of DeviceSite).
const (
	KindMedia   = "media"   // command fails with media error
	KindTimeout = "timeout" // command hangs, then fails with timeout
	KindDelay   = "delay"   // latency spike, command still succeeds
)

// DeviceSite names a device injection site, e.g.
// "device/optane-p5800x/media". Rules may use a trailing '*' to match
// every device: "device/*".
func DeviceSite(dev, kind string) string {
	return "device/" + dev + "/" + kind
}

// Rule arms one injection site (or a prefix of sites).
type Rule struct {
	// Site is an exact site name, or a glob with one '*' matching any
	// run of characters ("device/*" arms every device site,
	// "device/*/media" arms media errors on every device).
	Site string
	// Queue restricts the rule to one queue ID on queue-aware sites
	// (device commands); 0 matches any queue.
	Queue int
	// Prob fires the rule on each matching decision with this
	// probability, drawn from the injector's seeded PRNG.
	Prob float64
	// Period, when Prob is 0, fires the rule on every Period-th
	// matching decision (1 = every decision). A rule with neither
	// Prob nor Period set fires on every matching decision.
	Period int64
	// Start skips the first Start matching decisions before the rule
	// becomes eligible.
	Start int64
	// Count caps the number of fires; 0 = unlimited, 1 = one-shot.
	Count int64
	// Delay is the payload for delay-style sites (latency spikes,
	// ATS delays, timeout hang time). Zero lets the site pick its
	// default.
	Delay sim.Time
}

// ruleState is a Rule plus its decision counters.
type ruleState struct {
	Rule
	seen  int64 // matching decisions observed
	fired int64
}

// matches reports whether the rule covers the (site, queue) decision.
// A single '*' in the pattern matches any run of characters, so both
// "device/*" (prefix) and "device/*/media" (wildcard device name) work.
func (r *ruleState) matches(site string, queue int) bool {
	if r.Queue != 0 && r.Queue != queue {
		return false
	}
	if i := strings.IndexByte(r.Site, '*'); i >= 0 {
		pre, suf := r.Site[:i], r.Site[i+1:]
		return len(site) >= len(pre)+len(suf) &&
			strings.HasPrefix(site, pre) && strings.HasSuffix(site, suf)
	}
	return r.Site == site
}

// Injector evaluates injection sites for one simulated machine. The
// zero value of *Injector (nil) is inert; all methods are nil-safe.
type Injector struct {
	rules []*ruleState
	rng   *rand.Rand

	// reg is the registry fires are tallied in (Bind); fired caches
	// its per-site series.
	reg   *metrics.Registry
	fired map[string]*metrics.Counter
}

// NewInjector builds an injector from a rule list. Decisions draw from
// a PRNG seeded with seed, so two injectors with equal seeds and rules
// replay identically given the same decision sequence.
func NewInjector(seed int64, rules []Rule) *Injector {
	inj := &Injector{rng: rand.New(rand.NewSource(seed ^ 0x0fa17_b1a5e))}
	for _, r := range rules {
		rc := r
		inj.rules = append(inj.rules, &ruleState{Rule: rc})
	}
	return inj
}

// Bind tallies the injector's fires in r's faults_injected_total{site}
// series from now on (nil: no tally). The machine an injector is booted
// with binds its own registry.
func (inj *Injector) Bind(r *metrics.Registry) {
	if inj != nil {
		inj.reg, inj.fired = r, make(map[string]*metrics.Counter)
	}
}

// Active reports whether the injector carries any rules. An inactive
// injector's Fire path reads no mutable state (decide's rule loop is
// empty), so it is safe to call from parallel shard workers; harnesses
// consult Active to fall back to sequential dispatch when a fault
// profile is armed, since rule bookkeeping and the PRNG are shared.
func (inj *Injector) Active() bool { return inj != nil && len(inj.rules) > 0 }

// decide runs the (site, queue) decision against every rule in order
// and returns the first firing rule. PRNG draws happen only for
// probability rules that match the site, keeping the stream
// independent of unrelated sites.
func (inj *Injector) decide(site string, queue int) *ruleState {
	if inj == nil {
		return nil
	}
	var hit *ruleState
	for _, r := range inj.rules {
		if !r.matches(site, queue) {
			continue
		}
		r.seen++
		if r.seen <= r.Start {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		fire := false
		switch {
		case r.Prob > 0:
			// Consume a draw even if an earlier rule already fired,
			// so the stream depends only on the decision sequence.
			fire = inj.rng.Float64() < r.Prob
		case r.Period > 1:
			fire = (r.seen-r.Start)%r.Period == 0
		default:
			fire = true
		}
		if fire && hit == nil {
			r.fired++
			hit = r
		}
	}
	if hit != nil && inj.reg != nil {
		c, ok := inj.fired[site]
		if !ok {
			c = inj.reg.Counter(firedMetric, "site", site)
			inj.fired[site] = c
		}
		c.Inc()
	}
	return hit
}

// Fire evaluates a queue-less site and reports whether it fired.
func (inj *Injector) Fire(site string) bool { return inj.FireQ(site, 0) }

// FireQ evaluates a queue-aware site.
func (inj *Injector) FireQ(site string, queue int) bool {
	return inj.decide(site, queue) != nil
}

// FireDelay evaluates a delay-style site, returning the firing rule's
// Delay payload (possibly 0: the site applies its default).
func (inj *Injector) FireDelay(site string) (sim.Time, bool) {
	return inj.FireDelayQ(site, 0)
}

// FireDelayQ is FireDelay with a queue ID.
func (inj *Injector) FireDelayQ(site string, queue int) (sim.Time, bool) {
	if r := inj.decide(site, queue); r != nil {
		return r.Delay, true
	}
	return 0, false
}

// Profile is a named rule set selectable with bypassd-bench -faults.
type Profile struct {
	Name  string
	Desc  string
	Rules []Rule
}

// Built-in profiles. Every machine draws the same seeded stream (see
// New), so probabilities are sized for the ~100-1000
// decisions a typical quick-mode machine makes: high enough that the
// shared stream reliably fires inside that window, low enough that the
// bounded retries (3 per layer) almost never exhaust — experiments
// complete with shifted numbers rather than erroring. Crash sites are
// deliberately absent: they freeze a file system mid-commit and belong
// to the crash-recovery tests, not to benchmark profiles.
var builtins = []Profile{
	{
		Name: "flaky-media",
		Desc: "sporadic media errors and command timeouts on every device",
		Rules: []Rule{
			{Site: "device/*/media", Prob: 0.05},
			{Site: "device/*/timeout", Prob: 0.01, Delay: 200 * sim.Microsecond},
		},
	},
	{
		Name: "latency-spikes",
		Desc: "occasional device latency spikes and slow ATS responses",
		Rules: []Rule{
			{Site: "device/*/delay", Prob: 0.05, Delay: 50 * sim.Microsecond},
			{Site: SiteIOMMUATSDelay, Prob: 0.05, Delay: 2 * sim.Microsecond},
		},
	},
	{
		Name: "revoke-storm",
		Desc: "kernel keeps revoking direct access and declining fmap()",
		Rules: []Rule{
			{Site: SiteKernelRevoke, Prob: 0.02},
			{Site: SiteKernelFmapZero, Prob: 0.05},
		},
	},
	{
		Name: "iommu-storm",
		Desc: "spurious translation faults and IOTLB invalidation storms",
		Rules: []Rule{
			{Site: SiteIOMMUFault, Prob: 0.02},
			{Site: SiteIOMMUInvalidate, Prob: 0.05},
			{Site: SiteIOMMUATSDelay, Prob: 0.05, Delay: 1 * sim.Microsecond},
		},
	},
	{
		Name: "queue-pressure",
		Desc: "submission backpressure and refmap retry exhaustion",
		Rules: []Rule{
			{Site: SiteQueueFull, Prob: 0.05, Delay: 1 * sim.Microsecond},
			{Site: SiteRefmapExhaust, Prob: 0.005},
		},
	},
	{
		Name: "tenant-storm",
		Desc: "bursty tenant arrival spikes plus queue-full backpressure",
		Rules: []Rule{
			{Site: SiteTenantBurst, Prob: 0.01},
			{Site: SiteQueueFull, Prob: 0.05, Delay: 1 * sim.Microsecond},
		},
	},
	{
		Name: "chaos",
		Desc: "a little of everything at once",
		Rules: []Rule{
			{Site: "device/*/media", Prob: 0.01},
			{Site: "device/*/delay", Prob: 0.02, Delay: 20 * sim.Microsecond},
			{Site: SiteIOMMUFault, Prob: 0.01},
			{Site: SiteIOMMUInvalidate, Prob: 0.02},
			{Site: SiteKernelRevoke, Prob: 0.005},
			{Site: SiteKernelFmapZero, Prob: 0.01},
			{Site: SiteQueueFull, Prob: 0.02},
		},
	},
}

// Profiles lists the built-in profiles sorted by name.
func Profiles() []Profile {
	out := append([]Profile(nil), builtins...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProfileByName resolves a built-in profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range builtins {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// New builds one machine's injector from the named builtin profile,
// seeded with seed. An empty name returns nil (inert). Harnesses build
// a fresh injector for every machine they boot, all from the same
// (profile, seed), so a machine's fault stream depends only on its own
// deterministic decision sequence — never on how many machines boot
// or on scheduling across them.
func New(profile string, seed int64) (*Injector, error) {
	if profile == "" {
		return nil, nil
	}
	p, ok := ProfileByName(profile)
	if !ok {
		var names []string
		for _, b := range Profiles() {
			names = append(names, b.Name)
		}
		return nil, fmt.Errorf("faults: unknown profile %q (have %s)", profile, strings.Join(names, ", "))
	}
	return NewInjector(seed, p.Rules), nil
}

// firedMetric is the counter series every fire adds to, labeled by
// site, in the injector's metrics registry.
const firedMetric = "faults_injected_total"

// Fired reads the per-site fire counts r has accumulated (nil when r
// is nil) and their sum.
func Fired(r *metrics.Registry) (bySite map[string]int64, total int64) {
	bySite = r.CounterValues(firedMetric, "site")
	for _, n := range bySite {
		total += n
	}
	return bySite, total
}
