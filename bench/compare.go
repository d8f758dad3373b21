package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one line of a -compare input: a run's result line tagged
// with the workload and seed it ran, which pair the two sides' runs.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Result   resultLine `json:"result"`
}

// specMetric is a metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdictOf judges side B against side A for one metric, following the
// choosing-metrics rules: a gain needs B to win at least 9/10 of the
// pairs and the medians to differ by more than A's quartile spread; a
// metric whose spread exceeds its bound is unresolved unless every run
// of B beats every run of A; otherwise it is worse when B's median is
// worse than A's by more than the bound.
func verdictOf(a, b []float64, wins, pairs int, higher bool, bound *float64) string {
	medA, medB := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(medB, medA) && math.Abs(medB-medA) > q3a-q1a {
		return "improved"
	}
	if bound == nil {
		if pairs > 0 && 10*(pairs-wins) >= 9*pairs && better(medA, medB) && math.Abs(medB-medA) > q3a-q1a {
			return "worse"
		}
		return "no bound"
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	if ratio(q3a-q1a, math.Abs(medA)) > *bound || ratio(q3b-q1b, math.Abs(medB)) > *bound {
		if allBetter {
			return "unchanged"
		}
		return "unresolved"
	}
	if better(medA, medB) && ratio(math.Abs(medB-medA), math.Abs(medA)) > *bound {
		return "worse"
	}
	return "unchanged"
}

// compareFiles prints one row per (workload, metric) found in both
// files: each side's median and quartiles, the pairs B won, and the
// verdict.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	ra, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	metrics := map[string]specMetric{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = m
	}
	type key struct {
		workload string
		seed     int64
	}
	byKey := map[key]record{}
	for _, r := range ra {
		byKey[key{r.Workload, r.Seed}] = r
	}
	type cell struct {
		a, b        []float64
		wins, pairs int
	}
	cells := map[[2]string]*cell{}
	get := func(wl, name string) *cell {
		k := [2]string{wl, name}
		if cells[k] == nil {
			cells[k] = &cell{}
		}
		return cells[k]
	}
	for _, r := range ra {
		for name, v := range r.Result.Metrics {
			c := get(r.Workload, name)
			c.a = append(c.a, v.Value)
		}
	}
	for _, r := range rb {
		pa, paired := byKey[key{r.Workload, r.Seed}]
		for name, v := range r.Result.Metrics {
			c := get(r.Workload, name)
			c.b = append(c.b, v.Value)
			if va, ok := pa.Result.Metrics[name]; paired && ok {
				c.pairs++
				higher := metrics[name].Better == "higher"
				if (higher && v.Value > va.Value) || (!higher && v.Value < va.Value) {
					c.wins++
				}
			}
		}
	}
	keys := make([][2]string, 0, len(cells))
	for k, c := range cells {
		if len(c.a) > 0 && len(c.b) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB won\tbound\tverdict")
	for _, k := range keys {
		c := cells[k]
		m := metrics[k[1]]
		q1a, q3a := quartiles(c.a)
		q1b, q3b := quartiles(c.b)
		bound := "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\t%s\n",
			k[0], k[1], m.Unit,
			median(append([]float64(nil), c.a...)), q1a, q3a,
			median(append([]float64(nil), c.b...)), q1b, q3b,
			c.wins, c.pairs, bound, verdictOf(c.a, c.b, c.wins, c.pairs, m.Better == "higher", m.Bound))
	}
	return tw.Flush()
}
