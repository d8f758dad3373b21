package tenants

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NoisyNeighbor builds the canonical contention scenario: one
// latency-sensitive 4 KiB tenant against hogs large-block bandwidth
// tenants, under the given arbiter. The victim carries weight 16 /
// priority 0; hogs carry weight 1 / priority 1 and, for the "prio"
// arbiter, a per-queue token-bucket rate cap — so the same scenario
// ablates all three policies.
func NoisyNeighbor(arbiter string, hogs, victimOps, hogOps int) Scenario {
	sc := Scenario{
		Name:    fmt.Sprintf("noisy-neighbor-%s-%d", arbiterLabel(arbiter), hogs),
		Arbiter: arbiter,
		Tenants: []Tenant{{
			Name:      "victim",
			Engine:    core.EngineBypassD,
			RateOps:   20_000,
			Ops:       victimOps,
			BS:        4096,
			FileBytes: 8 << 20,
			QD:        2,
			QoS:       nvme.QoS{Weight: 16, Priority: 0},
			SLO:       30 * sim.Microsecond,
		}},
	}
	for i := 0; i < hogs; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Name:      fmt.Sprintf("hog%d", i),
			Engine:    core.EngineBypassD,
			RateOps:   60_000,
			Ops:       hogOps,
			BS:        64 << 10,
			FileBytes: 16 << 20,
			QD:        4,
			QoS: nvme.QoS{
				Weight:   1,
				Priority: 1,
				// Only the "prio" arbiter reads the rate cap; ~1/3 of
				// the offered hog load passes when it is enforced.
				RateOps: 20_000,
			},
		})
	}
	return sc
}

func arbiterLabel(arbiter string) string {
	if arbiter == "" {
		return "rr"
	}
	return arbiter
}

// ArbiterName is the scenario's arbiter with the default made
// explicit ("" reads as flat round-robin).
func (sc Scenario) ArbiterName() string { return arbiterLabel(sc.Arbiter) }

// SLOLoad builds the offered-load scenario behind table T8: tenants
// equal tenants splitting totalRate of 4 KiB reads with a latency SLO.
func SLOLoad(engine core.Engine, tenants int, totalRate float64, opsPer int) Scenario {
	sc := Scenario{
		Name: fmt.Sprintf("slo-load-%s", engine),
	}
	for i := 0; i < tenants; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Name:      fmt.Sprintf("t%d", i),
			Engine:    engine,
			RateOps:   totalRate / float64(tenants),
			Ops:       opsPer,
			BS:        4096,
			FileBytes: 8 << 20,
			QD:        8,
			SLO:       25 * sim.Microsecond,
		})
	}
	return sc
}

// ScaleOut builds the T9 weak-scaling scenario: every device gets one
// latency-sensitive 4 KiB victim and one large-block bandwidth hog.
// Tenant order interleaves with the round-robin striping so tenant d
// (victim) and tenant devices+d (hog) both land on device d. Aggregate
// throughput should scale with the device count while each victim's
// tail stays flat: the fleet shares an IOMMU and the host CPUs, but
// queues, arbitration, and media are per-device.
func ScaleOut(devices, victimOps, hogOps int) Scenario {
	sc := Scenario{
		Name:    fmt.Sprintf("scale-out-%d", devices),
		Arbiter: "wrr",
		Devices: devices,
	}
	for d := 0; d < devices; d++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Name:      fmt.Sprintf("victim%d", d),
			Engine:    core.EngineBypassD,
			RateOps:   20_000,
			Ops:       victimOps,
			BS:        4096,
			FileBytes: 8 << 20,
			QD:        2,
			QoS:       nvme.QoS{Weight: 16, Priority: 0},
			SLO:       30 * sim.Microsecond,
		})
	}
	for d := 0; d < devices; d++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Name:      fmt.Sprintf("hog%d", d),
			Engine:    core.EngineBypassD,
			RateOps:   60_000,
			Ops:       hogOps,
			BS:        64 << 10,
			FileBytes: 16 << 20,
			QD:        4,
			QoS:       nvme.QoS{Weight: 1, Priority: 1},
		})
	}
	return sc
}

// Builtins lists the named scenarios bypassd-bench can run directly.
func Builtins() []Scenario {
	return []Scenario{
		NoisyNeighbor("rr", 8, 2000, 2000),
		NoisyNeighbor("wrr", 8, 2000, 2000),
		NoisyNeighbor("prio", 8, 2000, 2000),
		SLOLoad(core.EngineBypassD, 4, 800_000, 2000),
	}
}

// ByName resolves a builtin scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Builtins() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ReportTable renders per-tenant results — achieved load, sojourn
// percentiles, SLO compliance, degradation counters — in tenant
// order.
func ReportTable(sc Scenario, results []*Result) *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("tenants: %s (arbiter %s)", sc.Name, arbiterLabel(sc.Arbiter)),
		"tenant", "engine", "offered_kiops", "achieved_kiops", "MB/s",
		"p50_us", "p99_us", "p999_us", "slo_us", "compliance_%",
		"peak_backlog", "retries", "fallbacks",
	)
	for _, r := range results {
		s := r.Sojourn.Summarize()
		slo := "-"
		compliance := "-"
		if r.Tenant.SLO > 0 {
			slo = fmt.Sprintf("%.1f", float64(r.Tenant.SLO)/1e3)
			compliance = fmt.Sprintf("%.1f", r.Compliance())
		}
		tb.AddRow(
			r.Tenant.Name, string(r.Tenant.Engine),
			r.Tenant.RateOps/1e3, r.IOPS()/1e3, r.Bandwidth()/1e6,
			float64(s.P50)/1e3, float64(s.P99)/1e3, float64(s.P999)/1e3,
			slo, compliance,
			r.PeakBacklog, r.Lib.Retries, r.Lib.Fallbacks,
		)
	}
	return tb
}
