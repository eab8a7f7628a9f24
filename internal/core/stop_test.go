package core

import (
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/metablocking"
)

// drainAll is a budget no test world reaches: a positive budget runs
// past the floor, so it empties the queue.
const drainAll = 1 << 30

// TestStopRule pins where a draining run stops on a fixed linked world
// and what the stop leaves behind, in decided pairs (the budget's unit).
// RunBudget(0) ends at the floor; the same resolver then decides nothing
// at budget 0 again, exactly k pairs at budget k, and the legs
// concatenate to one budgeted run of their total. A positive budget
// runs past the floor to the empty queue. The gate moves no stop: the
// same runs without the gate (the ungated reference) decide 3 033 and
// 3 079 pairs on this world, and exactly the gated runs' pairs of those
// can match.
func TestStopRule(t *testing.T) {
	const (
		stopAt = 932 // decided pairs of the draining run
		drains = 955 // decided pairs of a run that empties the queue
		// Decided pairs of each run without the gate.
		stopPops  = 3033
		drainPops = 3079
	)
	m, edges := hardWorld(t, 99, 130)
	r := NewResolver(m, edges, Config{})
	stopped := r.RunBudget(0)
	full := NewResolver(m, edges, Config{}).RunBudget(drainAll)
	if stopped.Comparisons != stopAt || full.Comparisons != drains {
		t.Fatalf("the draining run stopped at %d of %d decided pairs, want %d of %d",
			stopped.Comparisons, full.Comparisons, stopAt, drains)
	}
	minV := m.Options().MinValueSim
	for _, c := range []struct{ budget, decided, live int }{{0, stopPops, stopAt}, {drainAll, drainPops, drains}} {
		trace := newUngated(m, edges, Config{}, nil).run(c.budget)
		live := 0
		for _, s := range trace {
			if m.ValueSim(s.A, s.B) >= minV {
				live++
			}
		}
		if len(trace) != c.decided || live != c.live {
			t.Fatalf("budget %d without the gate decided %d pairs, %d of them live; want %d, %d",
				c.budget, len(trace), live, c.decided, c.live)
		}
	}
	if e := aboveFloor(r); e != 0 {
		t.Fatalf("the stopped run left %d executable pairs at or above the floor", e)
	}
	pending, gated := r.Pending(), r.Gated()
	if again := r.RunBudget(0); again.Comparisons != 0 || r.Pending() != pending || r.Gated() != gated {
		t.Fatalf("RunBudget(0) right after a stop decided %d pairs; Pending %d → %d, Gated %d → %d",
			again.Comparisons, pending, r.Pending(), gated, r.Gated())
	}
	const k = 20 // of the 23 decided pairs past the stop
	leg := r.RunBudget(k)
	if leg.Comparisons != k {
		t.Fatalf("RunBudget(%d) after a stop decided %d pairs", k, leg.Comparisons)
	}
	one := NewResolver(m, edges, Config{}).RunBudget(stopAt + k)
	if !slices.Equal(append(stopped.Trace, leg.Trace...), one.Trace) {
		t.Fatalf("RunBudget(0) then RunBudget(%d) differs from one RunBudget(%d)", k, stopAt+k)
	}

	if stopped.Discovered == 0 {
		t.Fatal("the stopped run decided no discovered pair; the world is too easy")
	}
}

// TestStopRuleBoostedAboveFloor checks that the floor cuts only what
// no evidence lifts: after a stop, a queued pair below the floor that
// a match's update phase boosts, and a cross-KB pair blocking never
// proposed that it discovers, both execute in the next draining run.
// Both can match: a pair that cannot is never queued (TestIndexScores).
func TestStopRuleBoostedAboveFloor(t *testing.T) {
	m, edges := hardWorld(t, 99, 130)
	r := NewResolver(m, edges, Config{})
	r.RunBudget(0)
	var queued, fresh blocking.Pair
	for st := range r.states.all() {
		if p := st.pair; !st.done && !st.discovered && !r.cl.Same(p.A, p.B) {
			queued = p
			break
		}
	}
	col := m.Collection()
	for a := 0; a < col.Len() && fresh == (blocking.Pair{}); a++ {
		for b := a + 1; b < col.Len(); b++ {
			p := blocking.MakePair(a, b)
			if _, st := r.states.find(p); st == nil && col.CrossKB(a, b) && !r.cl.Same(a, b) && m.CanMatch(m.ValueSim(a, b)) {
				fresh = p
				break
			}
		}
	}
	if queued == (blocking.Pair{}) || fresh == (blocking.Pair{}) {
		t.Fatal("no queued pair below the floor or no untracked pair to discover")
	}
	_, st := r.states.find(queued)
	if cur := r.priority(queued, st); cur >= r.floor {
		t.Fatalf("queued pair %v has priority %v, not below the floor %v", queued, cur, r.floor)
	}
	r.boost(queued)
	r.boost(fresh)
	decided := make(map[blocking.Pair]Step)
	for _, s := range r.RunBudget(0).Trace {
		decided[blocking.MakePair(s.A, s.B)] = s
	}
	if _, ok := decided[queued]; !ok {
		t.Errorf("boosted pair %v did not execute", queued)
	}
	if s, ok := decided[fresh]; !ok || !s.Discovered {
		t.Errorf("discovered pair %v: decided %v as %+v", fresh, ok, s)
	}
}

// TestStopRuleZeroWeights checks the guard: over a graph with no
// positive weight every retained pair's priority is its bias alone, so
// a floor would stop before the first comparison. Such a graph drains.
func TestStopRuleZeroWeights(t *testing.T) {
	m, edges := hardWorld(t, 99, 130)
	flat := make([]metablocking.Edge, len(edges))
	for i, e := range edges {
		flat[i] = metablocking.Edge{A: e.A, B: e.B}
	}
	for _, model := range Models() {
		r := NewResolver(m, flat, Config{Benefit: model})
		got := r.RunBudget(0)
		if e := executable(r); e != 0 || got.Comparisons == 0 {
			t.Fatalf("%s: a zero-weight graph ran %d comparisons and left %d executable", model.Name(), got.Comparisons, e)
		}
		sameTrace(t, model.Name(), NewResolver(m, flat, Config{Benefit: model}).RunBudget(drainAll), got)
	}
}

// TestStopKeepsQuality holds every benefit model's floor to its
// purpose: on LOD clouds and center–center pairs, the F1 of the
// stopped run is within 0.002 of the drained run's.
func TestStopKeepsQuality(t *testing.T) {
	worlds := map[string]func(seed int64) datagen.Config{
		"lod": func(s int64) datagen.Config { return datagen.LODCloud(s, 200) },
		"center-center": func(s int64) datagen.Config {
			return datagen.TwoKBs(s, 200, datagen.Center(), datagen.Center())
		},
	}
	for name, world := range worlds {
		for seed := int64(1); seed <= 3; seed++ {
			w, err := datagen.Generate(world(seed))
			if err != nil {
				t.Fatal(err)
			}
			m, edges := pipeline(t, w)
			for _, model := range Models() {
				f1 := func(budget int) float64 {
					res := NewResolver(m, edges, Config{Benefit: model}).RunBudget(budget)
					return eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(m)).F1
				}
				if stop, drain := f1(0), f1(drainAll); stop < drain-0.002 {
					t.Errorf("%s seed %d %s: F1 %.4f at the stop, %.4f drained", name, seed, model.Name(), stop, drain)
				}
			}
		}
	}
}
