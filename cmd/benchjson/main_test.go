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
BenchmarkDirect64KRead-2  	  100000	      3000 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimThroughputTraceOn-2	   10000	    100000 ns/op	    4743 B/op	       0 allocs/op
BenchmarkBootDirect4KRead-2	    4000	    200000 ns/op	  186193 B/op	     197 allocs/op
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
		{
			name: "allocation on an allocation-free row",
			run: `BenchmarkDirect64KRead-2   5   3000 ns/op   0 B/op   0 allocs/op
BenchmarkDirect64KRead-2   5   3000 ns/op   48 B/op   1 allocs/op`,
			fails: 1,
			want:  "0 -> 1 allocs/op",
		},
		{
			name: "rows that allocate stay ungated",
			run: `BenchmarkSimThroughputTraceOn-2   5   100000 ns/op   78227 B/op   2 allocs/op
BenchmarkBootDirect4KRead-2   5   200000 ns/op   478001 B/op   202 allocs/op`,
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

func TestCheckSpeedup(t *testing.T) {
	run, err := parseBench(strings.NewReader(`
BenchmarkFrontendThroughput/w1-2   5   6000000 ns/op   6000000 events/sec
BenchmarkFrontendThroughput/w1-2   5   5000000 ns/op   7000000 events/sec
BenchmarkFrontendThroughput/w2-2   5   3500000 ns/op  10500000 events/sec
`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec  string
		fails int
		want  string
	}{
		{"FrontendThroughput/w2:FrontendThroughput/w1:1.4:1", 0, "ok    speedup FrontendThroughput/w2 vs FrontendThroughput/w1: 1.50x on events/sec (floor 1.40x)"},
		{"FrontendThroughput/w2:FrontendThroughput/w1:1.6:1", 1, "FAIL  speedup"},
		{"FrontendThroughput/w2:FrontendThroughput/w1:1.6:100000", 0, "need >= 100000"},
		{"FrontendThroughput/w2:FrontendThroughput/w1:1.6:two", 1, "bad cpus"},
		{"FrontendThroughput/w4:FrontendThroughput/w1:1.6:1", 1, "missing from run"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := checkSpeedup(&out, run, c.spec, 4); got != c.fails {
			t.Errorf("%s: %d failures, want %d\n%s", c.spec, got, c.fails, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.spec, c.want, out.String())
		}
	}
}
