package frontend

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workerOps is the calibrated per-worker service rate of the default
// fleet configuration (kvell over BypassD, requests/sec): the
// saturation anchor every builtin fleet and the T10 sweep size their
// offered load against. Measured at pool 8 over 2 devices, where the
// kvell slab serves one 1.5 KiB slot read per request in ~5µs
// end to end and scales linearly with the pool.
const workerOps = 190_000.0

// ServiceFleet builds the canonical service-tier fleet: a kvell-backed
// user population over BypassD with an offered load of frac times the
// pool's calibrated capacity and a 200µs sojourn SLO. The token
// bucket refills at 85% of capacity; CoDel derives its control-law
// constants from the SLO.
func ServiceFleet(policy Policy, frac float64, devices, pool int, users uint64, requests int) Fleet {
	capacity := workerOps * float64(pool)
	return Fleet{
		Name:      fmt.Sprintf("fleet-%s-%.1fx", policyLabel(policy), frac),
		Backend:   "kvell",
		Devices:   devices,
		Pool:      pool,
		Users:     users,
		Requests:  requests,
		RateOps:   frac * capacity,
		Admission: policy,
		TokenRate: 0.85 * capacity,
		SLO:       200 * sim.Microsecond,
		StoreKeys: 2048,
	}
}

func policyLabel(p Policy) string {
	if p == "" {
		return string(AdmitAll)
	}
	return string(p)
}

// PolicyName is the fleet's admission policy with the default made
// explicit.
func (fl Fleet) PolicyName() string { return policyLabel(fl.Admission) }

// Builtins lists the named fleets bypassd-bench can run directly: the
// three admission policies at 2x saturation, plus the diurnal and
// bursty load shapes at moderate load.
func Builtins() []Fleet {
	overload := func(p Policy) Fleet {
		return ServiceFleet(p, 2.0, 2, 8, 20_000, 30_000)
	}
	shaped := func(shape workload.Shape) Fleet {
		fl := ServiceFleet(AdmitCoDel, 0.8, 2, 8, 20_000, 30_000)
		fl.Name = "fleet-" + string(shape)
		fl.Shape = shape
		return fl
	}
	return []Fleet{
		overload(AdmitAll),
		overload(AdmitToken),
		overload(AdmitCoDel),
		shaped(workload.Diurnal),
		shaped(workload.Bursty),
	}
}

// ByName resolves a builtin fleet.
func ByName(name string) (Fleet, bool) {
	for _, fl := range Builtins() {
		if fl.Name == name {
			return fl, true
		}
	}
	return Fleet{}, false
}

// ReportTable renders a fleet run: one row per device plus a fleet
// row, with goodput, shed accounting, sojourn percentiles, SLO
// compliance, and user coverage.
func ReportTable(fl Fleet, res *Result) *stats.Table {
	fl = res.Fleet // the normalized fleet, defaults resolved
	tb := stats.NewTable(
		fmt.Sprintf("frontend: %s (%s over %s, %s admission, pool %d, %d users)",
			fl.Name, fl.Backend, fl.Engine, fl.PolicyName(), fl.Pool, fl.Users),
		"device", "offered", "admitted", "shed_%", "goodput_kops",
		"p50_us", "p99_us", "p999_us", "slo_met_%", "users", "peak_backlog", "bursts",
	)
	row := func(name string, offered, admitted, shed, completed, sloMet, users, bursts int64, h *stats.Histogram, start, end sim.Time, peak int) {
		s := h.Summarize()
		shedPct := 0.0
		if offered > 0 {
			shedPct = 100 * float64(shed) / float64(offered)
		}
		sloCol := "-"
		if res.Fleet.SLO > 0 && completed > 0 {
			sloCol = stats.Fmt(100 * float64(sloMet) / float64(completed))
		}
		tb.AddRow(
			name, offered, admitted, shedPct,
			stats.Throughput(completed, end-start)/1e3,
			float64(s.P50)/1e3, float64(s.P99)/1e3, float64(s.P999)/1e3,
			sloCol, users, peak, bursts,
		)
	}
	for _, d := range res.Devices {
		row(fmt.Sprintf("dev%d", d.Device), d.Offered, d.Admitted, d.Shed(), d.Completed,
			d.SLOMet, d.UsersServed, d.Bursts, d.Sojourn, d.Start, d.End, d.PeakBacklog)
	}
	start, end := res.Window()
	peak := 0
	for _, d := range res.Devices {
		if d.PeakBacklog > peak {
			peak = d.PeakBacklog
		}
	}
	row("fleet", res.Offered(), res.Admitted(), res.Shed(), res.Completed(),
		res.sum(func(d *DevResult) int64 { return d.SLOMet }), res.UsersServed(), res.Bursts(),
		res.Sojourn(), start, end, peak)
	return tb
}
