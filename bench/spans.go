package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Per-request spans written to a trace: a deterministic 1-in-sampleEvery
// sample by request id plus the slowestKept slowest requests. The
// traced run's aggregates cover every request regardless.
const (
	sampleEvery = 1000
	slowestKept = 100
)

// spanLog keeps the benchmark's own spans in memory on the host clock
// and writes them as a Chrome trace-event file at exit. Spans of the
// harness (run, setup phases, traffic, passes) sit on tid 0; request
// spans sit on tid t+1 of the thread that issued them.
type spanLog struct {
	epoch time.Time
	spans []span
}

type span struct {
	name       string
	tid        int
	start, end time.Duration // host time since epoch
	args       map[string]any
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// since is the host time since the log's epoch.
func (l *spanLog) since() time.Duration { return time.Since(l.epoch) }

// begin opens a harness span; calling the result closes it. A nil log
// records nothing.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	start := l.since()
	return func() { l.spans = append(l.spans, span{name: name, start: start, end: l.since()}) }
}

// addRequests keeps the sampled and the slowest of a traced run's
// calls; a call's request id is its index in reqs.
func (l *spanLog) addRequests(reqs []callSample) {
	keep := map[int]bool{}
	for i := 0; i < len(reqs); i += sampleEvery {
		keep[i] = true
	}
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return reqs[idx[a]].vEnd-reqs[idx[a]].vStart > reqs[idx[b]].vEnd-reqs[idx[b]].vStart
	})
	for _, i := range idx[:min(slowestKept, len(idx))] {
		keep[i] = true
	}
	ids := make([]int, 0, len(keep))
	for i := range keep {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, i := range ids {
		r := reqs[i]
		l.spans = append(l.spans, span{
			name:  kindNames[r.kind],
			tid:   int(r.thread) + 1,
			start: time.Duration(r.hStart),
			end:   time.Duration(r.hEnd),
			args: map[string]any{
				"request_id":      i,
				"virt_start_ns":   r.vStart,
				"virt_end_ns":     r.vEnd,
				"host_start_ns":   r.hStart,
				"host_end_ns":     r.hEnd,
				"virt_latency_ns": r.vEnd - r.vStart,
			},
		})
	}
}

var kindNames = [numKinds]string{"pread", "pwrite", "append", "fsync"}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   *float64       `json:"ts,omitempty"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// write renders the spans as Chrome trace-event JSON (microsecond
// timestamps on the host clock) to path.
func (l *spanLog) write(path, label string) error {
	events := []traceEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": label}}}
	tids := map[int]bool{0: true}
	for _, s := range l.spans {
		tids[s.tid] = true
	}
	ids := make([]int, 0, len(tids))
	for t := range tids {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	for _, t := range ids {
		name := "harness"
		if t > 0 {
			name = fmt.Sprintf("thread %d", t-1)
		}
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: t, Args: map[string]any{"name": name}})
	}
	for _, s := range l.spans {
		ts := float64(s.start) / 1e3
		dur := float64(s.end-s.start) / 1e3
		cat := "bench"
		if s.tid > 0 {
			cat = "request"
		}
		events = append(events, traceEvent{Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: s.tid, Ts: &ts, Dur: &dur, Args: s.args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
