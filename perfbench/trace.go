package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it in the merged trace (-1 for a root); spans of one
// benchmark operation share Op.
//
// The benchmark times layers from outside: a layer that runs inside a
// call it cannot see into (catalog.Set, server.Stage) is re-run on the
// same input right after the real call, and those re-runs are recorded
// as the real span's children. Self time is therefore a span's
// duration minus its children's durations, not minus an overlap.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of one goroutine. A nil *tracer records
// nothing, which is how untraced runs stay free of span bookkeeping.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its local id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// mergeSpans concatenates per-goroutine traces, rebasing parent ids.
func mergeSpans(ts []*tracer) []span {
	var out []span
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStats summarizes a merged trace per span name.
type spanStats struct {
	durs  map[string][]int64 // every closed span's duration
	self  map[string]int64   // summed self time
	total map[string]int64   // summed duration
}

func summarize(spans []span) spanStats {
	st := spanStats{durs: map[string][]int64{}, self: map[string]int64{}, total: map[string]int64{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st.durs[s.Name] = append(st.durs[s.Name], s.dur())
		st.self[s.Name] += s.dur() - child[i]
		st.total[s.Name] += s.dur()
	}
	return st
}

// medianUS is the median duration of the named spans in microseconds.
func (st spanStats) medianUS(name string) float64 {
	return quantile(durs(st.durs[name], time.Microsecond), 0.5)
}

// selfFrac is the named spans' summed self time over their summed
// duration: for catalog.set, the part of the swap no re-run layer
// explains.
func (st spanStats) selfFrac(name string) float64 {
	if st.total[name] == 0 {
		return 0
	}
	return float64(st.self[name]) / float64(st.total[name])
}

// names returns the span names in ascending order.
func (st spanStats) names() []string {
	var out []string
	for n := range st.durs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
