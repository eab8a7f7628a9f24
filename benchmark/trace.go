package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own side of the boundary. Times are nanoseconds since the recorder's
// epoch; Parent is the index of the enclosing span in the same list, or
// -1 for a root; spans of one scenario iteration share Iteration.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same scenario code runs traced and untraced.
// It is single-goroutine: the scenarios it wraps are sequential.
type recorder struct {
	epoch     time.Time
	iteration int
	spans     []span
	open      []int // indices of the spans currently open, innermost last
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// in runs fn inside a span called name, a child of the innermost open
// span.
func (r *recorder) in(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Iteration: r.iteration, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	fn()
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// adopt appends spans recorded elsewhere (a child process) under the
// given iteration.
func (r *recorder) adopt(spans []span, iteration int) {
	base := len(r.spans)
	r.spans = appendSpans(r.spans, spans)
	for i := base; i < len(r.spans); i++ {
		r.spans[i].Iteration = iteration
	}
}

// appendSpans appends src, a self-contained span list, to dst, keeping
// src's parent links pointing at the same spans.
func appendSpans(dst, src []span) []span {
	base := len(dst)
	for _, s := range src {
		if s.Parent >= 0 {
			s.Parent += base
		}
		dst = append(dst, s)
	}
	return dst
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(spans, children[i], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the listed spans cover, counting
// overlapping stretches once.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].Start < spans[ids[b]].Start })
	var total int64
	at := lo
	for _, id := range ids {
		s, e := max(spans[id].Start, at), min(spans[id].End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// totalTimes returns, per span name, the summed durations.
func totalTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}
