package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestT9ScaleOutSpeedup is the tentpole acceptance criterion at the
// table layer: with one victim+hog pair per device, aggregate IOPS at
// 4 devices must be at least 2x the single-device machine — the
// shared host cores must not serialize the fleet.
func TestT9ScaleOutSpeedup(t *testing.T) {
	rep, _ := runTenancy(t, "T9", 1)
	tb := rep.Tables[0]
	agg := map[string]float64{}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("agg cell %q: %v", row[2], err)
		}
		agg[row[0]] = v
	}
	for _, d := range []string{"1", "2", "4"} {
		if _, ok := agg[d]; !ok {
			t.Fatalf("no row for %s devices: %v", d, tb.Rows)
		}
	}
	if agg["4"] < 2*agg["1"] {
		t.Errorf("aggregate kIOPS at 4 devices = %.1f, want >= 2x single-device %.1f", agg["4"], agg["1"])
	}
	if agg["2"] <= agg["1"] {
		t.Errorf("aggregate kIOPS at 2 devices = %.1f did not exceed single-device %.1f", agg["2"], agg["1"])
	}
}

// TestT9ParallelByteIdentical: the N-device event lanes merge by the
// global (at, seq) key, so the whole device ladder must render
// byte-identically at -j1 and -j8 and across same-seed replays.
func TestT9ParallelByteIdentical(t *testing.T) {
	_, a := runTenancy(t, "T9", 1)
	_, b := runTenancy(t, "T9", 8)
	if a != b {
		t.Errorf("T9: -j1 and -j8 reports differ:\n%s\nvs\n%s", a, b)
	}
	_, c := runTenancy(t, "T9", 1)
	if a != c {
		t.Errorf("T9: same-seed replay diverged")
	}
}

// Options.Devices narrows the ladder to one cell (the -devices flag);
// other experiments must ignore it entirely.
func TestT9DevicesOverride(t *testing.T) {
	e, _ := ByID("T9")
	rep, err := e.Run(Options{Quick: true, Seed: 42, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb := rep.Tables[0]
	if len(tb.Rows) != 1 || tb.Rows[0][0] != "2" {
		t.Fatalf("Devices=2 rows = %v, want the single 2-device cell", tb.Rows)
	}
	// The narrowed cell carries no speedup baseline.
	if !strings.Contains(tb.String(), "-") {
		t.Fatalf("narrowed cell should render speedup as '-':\n%s", tb.String())
	}

	t7, _ := ByID("T7")
	with, err := t7.Run(Options{Quick: true, Seed: 42, Devices: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	without, err := t7.Run(Options{Quick: true, Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if with.String() != without.String() {
		t.Fatalf("T7 output changed under Options.Devices:\n%s\nvs\n%s", with.String(), without.String())
	}
}
