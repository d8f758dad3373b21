package main

import (
	"bytes"
	"strings"
	"testing"
)

// snapshotOf parses bench output into the document -check reads.
func snapshotOf(t *testing.T, text string) output {
	t.Helper()
	run, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return output{Run: run}
}

const snapText = `
BenchmarkDirect4KRead-2   	  100000	     10000 ns/op	         7.000 events/op	         4.000 resumes/op
BenchmarkFig6LatBW-2      	      10	   5000000 ns/op
`

func TestCheckAgainst(t *testing.T) {
	snap := snapshotOf(t, snapText)
	cases := []struct {
		name  string
		run   string
		fails int
		want  string
	}{
		{
			name: "pass",
			run: `BenchmarkDirect4KRead-2   5   12000 ns/op   7.000 events/op   4.000 resumes/op
BenchmarkDirect4KRead-2   5    9000 ns/op   7.000 events/op   4.000 resumes/op
BenchmarkFig6LatBW-2      5 5500000 ns/op`,
		},
		{
			name: "count mismatch on one repetition",
			run: `BenchmarkDirect4KRead-2   5   9000 ns/op   7.000 events/op   4.000 resumes/op
BenchmarkDirect4KRead-2   5   9000 ns/op   8.000 events/op   4.000 resumes/op
BenchmarkFig6LatBW-2      5 5000000 ns/op`,
			fails: 1,
			want:  "7 -> 8 events/op",
		},
		{
			name: "missing count",
			run: `BenchmarkDirect4KRead-2   5   9000 ns/op   7.000 events/op
BenchmarkFig6LatBW-2      5 5000000 ns/op`,
			fails: 1,
			want:  "resumes/op",
		},
		{
			name: "ns/op regression beyond tolerance",
			run: `BenchmarkDirect4KRead-2   5   9000 ns/op   7.000 events/op   4.000 resumes/op
BenchmarkFig6LatBW-2      5 6500000 ns/op`,
			fails: 1,
			want:  "FAIL  Fig6LatBW",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, err := parseBench(strings.NewReader(c.run))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if got := checkAgainst(&out, run, snap, 0.25); got != c.fails {
				t.Fatalf("checkAgainst = %d failures, want %d\n%s", got, c.fails, out.String())
			}
			if c.want != "" && !strings.Contains(out.String(), c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, out.String())
			}
		})
	}
}
