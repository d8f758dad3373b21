package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// keySpec pins exactly the key columns of one rendered row.
func keySpec(id string, keys []string, row []string, o Options) ReproSpec {
	sp := ReproSpec{ID: id, Seed: o.Seed, Trials: o.Trials, Full: !o.Quick}
	for i, k := range keys {
		sp.Match = append(sp.Match, ReproKV{Key: headerKey(k), Value: row[i]})
	}
	return sp
}

// TestOneCellReplay replays every row of every table declared as
// cells from a spec that pins only the row's key columns: the replay
// must render the identical row, and its report must hold nothing but
// matched rows (plus T9's 1-device base row, which its speedup column
// reads).
func TestOneCellReplay(t *testing.T) {
	type run struct {
		id string
		o  Options
	}
	var runs []run
	for _, id := range trialedIDs() {
		runs = append(runs, run{id, Options{Quick: true, Seed: 1}})
	}
	runs = append(runs, run{"T7", Options{Quick: true, Seed: 1, Trials: 3}})
	for _, r := range runs {
		e, _ := ByID(r.id)
		o := r.o
		o.Parallelism = 2
		whole, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", r.id, err)
		}
		decl := e.cells(o)
		for ti, tb := range whole.Tables {
			keys := decl.tables[ti].keys
			for _, row := range tb.Rows {
				sp := keySpec(r.id, keys, row, o)
				run, err := RunRepro(sp, Options{Parallelism: 2})
				if err != nil {
					t.Fatalf("replay %s: %v", sp, err)
				}
				found := false
				for _, m := range run.Matches {
					found = found || (m.Table == tb.Title && reflect.DeepEqual(m.Row, row))
				}
				if !found {
					t.Fatalf("replay %s did not render the row %v; matched %+v", sp, row, run.Matches)
				}
				rows := 0
				for _, rt := range run.Report.Tables {
					rows += len(rt.Rows)
				}
				extra := 0
				if r.id == "T9" && row[0] != "1" {
					extra = 1 // the base row
				}
				if rows != len(run.Matches)+extra {
					t.Fatalf("replay %s ran %d rows for %d matches:\n%s", sp, rows, len(run.Matches), run.Report)
				}
			}
		}
	}
}

// F10's SPDK cells past one process cannot run: the replay of one
// renders exactly its n/a row.
func TestReplayNACell(t *testing.T) {
	sp, err := ParseReproSpec("F10:processes=4,engine=spdk@seed=1")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunRepro(sp, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"4", "spdk", "n/a (cannot share)"}
	if len(run.Report.Tables) != 1 || len(run.Report.Tables[0].Rows) != 1 ||
		len(run.Matches) != 1 || !reflect.DeepEqual(run.Matches[0].Row, want) {
		t.Fatalf("replay %s: want the one row %q, got:\n%s", sp, want, run.Report)
	}
}

// A constraint on a value column still filters rendered rows, and one
// on a column the table lacks matches nothing.
func TestReplayValueConstraints(t *testing.T) {
	sp, err := ParseReproSpec("T9:devices=2,tenants=5@seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRepro(sp, Options{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "matched no rows") {
		t.Fatalf("mismatched key constraint replayed: %v", err)
	}
	sp, _ = ParseReproSpec("T9:devices=2,speedup=-@seed=1")
	if _, err := RunRepro(sp, Options{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "matched no rows") {
		t.Fatalf("value constraint did not filter the replayed row: %v", err)
	}
	sp, _ = ParseReproSpec("T10:bogus=1@seed=1")
	if _, err := RunRepro(sp, Options{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "goodput") {
		t.Fatalf("unknown column must fail naming the headers, got %v", err)
	}
}

// Every gate's cells resolve in both modes, so a full-mode gate run
// cannot silently compare the wrong rows.
func TestGateKeysResolve(t *testing.T) {
	for _, g := range Gates() {
		for _, quick := range []bool{true, false} {
			e, _ := ByID(g.ID)
			decl := e.cells(Options{Quick: quick, Seed: 1})
			for _, s := range []GateSide{g.Subject, g.Other} {
				if _, err := g.resolve(decl, s, quick); err != nil {
					t.Errorf("quick=%t: %v", quick, err)
				}
			}
		}
	}
}

// Under a fault profile every gate trial draws its own faults from
// its trial seed, and the printed repro spec — which carries the
// profile — replays each trial's sample exactly.
func TestFaultedGateTrialsReplay(t *testing.T) {
	for _, g := range Gates() {
		res, err := g.Run(Options{Quick: true, Seed: 1, Parallelism: 2, Faults: "chaos"})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for i, side := range []GateSide{g.Subject, g.Other} {
			sp, err := ParseReproSpec(res.Repro[i])
			if err != nil {
				t.Fatal(err)
			}
			if sp.Faults != "chaos" || !strings.Contains(res.Repro[i], ",faults=chaos") {
				t.Fatalf("%s: repro spec %q dropped the fault profile", g.Name, res.Repro[i])
			}
			xs := res.Samples[side.Label]
			if g.Name == "f6-read-latency" && side.Label == "bypassd" && xs[1] == xs[0] && xs[2] == xs[0] {
				t.Fatalf("faulted trials share one fault stream: samples %v", xs)
			}
			for k, want := range xs {
				sp.Trial = k
				run, err := RunRepro(sp, Options{Parallelism: 1})
				if err != nil {
					t.Fatalf("replay %s: %v", sp, err)
				}
				m := run.Matches[0]
				col := -1
				for c, h := range m.Headers {
					if headerKey(h) == g.Metric && col < 0 {
						col = c
					}
				}
				if got := m.Row[col]; got != stats.Fmt(want) {
					t.Fatalf("%s %s trial %d: replay %s renders %s, gate sampled %v",
						g.Name, side.Label, k, sp, got, want)
				}
			}
		}
	}
}
