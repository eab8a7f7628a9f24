package main

import (
	"testing"
	"time"
)

func TestRecorderLinksParents(t *testing.T) {
	r := newRecorder()
	r.iteration = 3
	r.in("run", func() {
		r.in("a", func() { r.in("a.inner", func() {}) })
		r.in("b", func() {})
	})
	r.in("after", func() {})
	want := []struct {
		name   string
		parent int
	}{{"run", -1}, {"a", 0}, {"a.inner", 1}, {"b", 0}, {"after", -1}}
	if len(r.spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(r.spans), len(want))
	}
	for i, w := range want {
		s := r.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Iteration != 3 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
	if len(r.open) != 0 {
		t.Errorf("%d spans left open", len(r.open))
	}
}

func TestNilRecorderStillRuns(t *testing.T) {
	var r *recorder
	ran := false
	r.in("x", func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the function")
	}
}

func TestSelfTimes(t *testing.T) {
	tests := []struct {
		name  string
		spans []span
		want  map[string]time.Duration
	}{
		{"leaf", []span{{Name: "a", Start: 0, End: 10, Parent: -1}}, map[string]time.Duration{"a": 10}},
		{"children subtract", []span{
			{Name: "run", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 10, End: 30, Parent: 0},
			{Name: "b", Start: 50, End: 90, Parent: 0},
		}, map[string]time.Duration{"run": 40, "a": 20, "b": 40}},
		{"overlapping children count once", []span{
			{Name: "run", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 10, End: 60, Parent: 0},
			{Name: "b", Start: 40, End: 80, Parent: 0},
		}, map[string]time.Duration{"run": 30, "a": 50, "b": 40}},
		{"grandchildren belong to their parent", []span{
			{Name: "run", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 0, End: 100, Parent: 0},
			{Name: "a.x", Start: 20, End: 70, Parent: 1},
		}, map[string]time.Duration{"run": 0, "a": 50, "a.x": 50}},
		{"same name sums", []span{
			{Name: "w", Start: 0, End: 5, Parent: -1},
			{Name: "w", Start: 5, End: 12, Parent: -1},
		}, map[string]time.Duration{"w": 12}},
		{"child clipped to its parent", []span{
			{Name: "run", Start: 10, End: 20, Parent: -1},
			{Name: "a", Start: 5, End: 15, Parent: 0},
		}, map[string]time.Duration{"run": 5, "a": 10}},
	}
	for _, tc := range tests {
		got := selfTimes(tc.spans)
		for name, want := range tc.want {
			if got[name] != want {
				t.Errorf("%s: self time of %s = %d, want %d", tc.name, name, got[name], want)
			}
		}
	}
}

func TestAdoptKeepsParentLinks(t *testing.T) {
	r := newRecorder()
	r.in("mine", func() {})
	child := []span{{Name: "run", Parent: -1, End: 9}, {Name: "x", Parent: 0, Start: 1, End: 4}}
	r.adopt(child, 7)
	if got := r.spans[2]; got.Parent != 1 || got.Iteration != 7 || got.Name != "x" {
		t.Errorf("adopted child span = %+v, want parent 1 in iteration 7", got)
	}
	if got := r.spans[1]; got.Parent != -1 {
		t.Errorf("adopted root span = %+v, want it to stay a root", got)
	}
	if child[1].Parent != 0 {
		t.Error("adopt must not modify the caller's spans")
	}
	if cov, ok := runCoverage(child); !ok || cov < 0.3333 || cov > 0.3334 {
		t.Errorf("runCoverage = %v, %v; want 1/3", cov, ok)
	}
}
