package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the server are a later change). Times are nanoseconds
// since the tracer's epoch; Parent is an index into the span list, -1 for
// a root. Spans of one operation share its Op id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how tracing is off for end-to-end numbers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose ends were stamped by the caller.
func (t *tracer) add(name string, parent int, op uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Overlapping children (parallel
// work) are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// nameStat aggregates the self times of every span with one name.
type nameStat struct {
	Count    int     `json:"count"`
	TotalUS  float64 `json:"total_self_us"`
	MedianUS float64 `json:"median_self_us"`
}

// selfByName groups self times by span name; selfByLayer by the module
// prefix before the first dot.
func selfByName(spans []span) map[string]nameStat {
	self := selfTimes(spans)
	samples := make(map[string][]float64)
	for i, s := range spans {
		samples[s.Name] = append(samples[s.Name], float64(self[i])/1e3)
	}
	out := make(map[string]nameStat, len(samples))
	for name, v := range samples {
		total := 0.0
		for _, x := range v {
			total += x
		}
		out[name] = nameStat{Count: len(v), TotalUS: total, MedianUS: median(v)}
	}
	return out
}

func selfByLayer(byName map[string]nameStat) map[string]float64 {
	out := make(map[string]float64)
	for name, st := range byName {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += st.TotalUS
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	ScheduleHash string              `json:"schedule_hash"`
	SelfByName   map[string]nameStat `json:"self_time_by_span"`
	SelfByLayer  map[string]float64  `json:"self_time_us_by_layer"`
	Waterfall    []waterfall         `json:"waterfall"`
	Metrics      map[string]float64  `json:"metrics"`
	Spans        []span              `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
