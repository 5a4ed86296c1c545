package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: times are nanoseconds since the
// recorder was created, parent is the index of the span that caused it
// (-1 for a root).
type span struct {
	Name       string
	Start, End int64
	Parent     int
}

// recorder is the benchmark's own in-memory span store. Spans are
// recorded from the benchmark's files only, around the public calls into
// each layer; nothing inside the program is instrumented. A nil recorder
// records nothing, which is how the untraced run pays no cost.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, edge int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums self time (seconds) over all spans of each name.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// writeChrome flushes the spans as Chrome-trace JSON (complete events,
// microseconds); every event carries the workload as its shared id.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	self := selfTimes(r.spans)
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]string{
				"workload": r.workload,
				"self":     time.Duration(self[i]).String(),
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
