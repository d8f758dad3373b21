package experiments

import "fmt"

// trialSeedStride spaces the derived per-trial seeds far apart so the
// per-cell generators — which further mix the seed with sweep
// coordinates and tenant indices — never see colliding streams
// between neighboring trials.
const trialSeedStride = 1_000_003

// TrialSeed derives the workload seed for trial k of a run based at
// Seed. Trial 0 is the base seed itself, so single-trial runs
// reproduce the historical tables byte for byte; trial k steps by
// k*trialSeedStride. The derivation depends only on (Seed, k) — never
// on execution order — which is what keeps multi-trial reports
// byte-identical at any Parallelism, and what lets the repro tool
// replay exactly one flagged trial from its coordinates.
func (o Options) TrialSeed(k int) int64 {
	if k <= 0 {
		return o.Seed
	}
	return o.Seed + int64(k)*trialSeedStride
}

// trials normalizes Options.Trials: anything below 2 is the single
// historical trial.
func (o Options) trials() int {
	if o.Trials <= 1 {
		return 1
	}
	return o.Trials
}

// trialTitle tags a multi-trial table title with the trial count.
func trialTitle(title string, o Options) string {
	return fmt.Sprintf("%s — %d trials, 95%% CI", title, o.trials())
}

// trialNote explains the seed-derivation invariant and the new
// columns on every multi-trial table.
func trialNote(o Options) string {
	return fmt.Sprintf("each cell ran %d independent trials (trial k reruns the cell with seed %d+k·%d); "+
		"value columns are cross-trial means, ± columns are two-sided 95%% Student-t confidence half-widths, "+
		"span columns are the min..max observed across trials",
		o.trials(), o.Seed, trialSeedStride)
}
