package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// randomEdges draws n edges over ids below ids — half of them pruned
// edges of the world, so runs match and discover pairs, the rest
// random pairs — in random orientation (NewResolver takes A > B too),
// with weights from a few values so ties are common, and about a tenth
// repeating an earlier pair with a different weight: the first
// occurrence must win.
func randomEdges(rng *rand.Rand, pool []metablocking.Edge, ids, n int) []metablocking.Edge {
	es := make([]metablocking.Edge, 0, n)
	for len(es) < n {
		w := float64(1+rng.Intn(5)) / 5
		var a, b int
		switch {
		case len(es) > 0 && rng.Intn(10) == 0:
			e := es[rng.Intn(len(es))]
			a, b = e.A, e.B
		case rng.Intn(2) == 0:
			e := pool[rng.Intn(len(pool))]
			a, b = e.A, e.B
		default:
			a, b = rng.Intn(ids), rng.Intn(ids)
			if a == b {
				continue
			}
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		es = append(es, metablocking.Edge{A: a, B: b, Weight: w})
	}
	return es
}

// stateModel is the map the store replaces: every tracked pair's state
// by pair key, read off the store's own iterator.
func stateModel(t *testing.T, label string, r *Resolver) map[uint64]*pairState {
	t.Helper()
	model := make(map[uint64]*pairState)
	for st := range r.states.all() {
		k := pairKey(st.pair)
		if model[k] != nil {
			t.Fatalf("%s: pair %v tracked twice", label, st.pair)
		}
		model[k] = st
	}
	return model
}

// checkStates verifies the store against edges and the map model: the
// slab holds each distinct edge pair once, in first-occurrence order,
// with the first occurrence's normalized weight; every tracked pair —
// edge or not — is found at its own state and rank; pairs outside the
// edge list are not in the CSR; untracked probes find nothing; and
// every queue entry names a tracked state.
func checkStates(t *testing.T, label string, r *Resolver, edges []metablocking.Edge, ids int, rng *rand.Rand) map[uint64]*pairState {
	t.Helper()
	first := make(map[uint64]int)
	var order []metablocking.Edge
	for _, e := range edges {
		k := pairKey(blocking.MakePair(e.A, e.B))
		if _, dup := first[k]; !dup {
			first[k] = len(order)
			order = append(order, e)
		}
	}
	if len(r.states.slab) != len(order) {
		t.Fatalf("%s: slab holds %d states, want %d distinct pairs", label, len(r.states.slab), len(order))
	}
	for i, e := range order {
		p := blocking.MakePair(e.A, e.B)
		st := &r.states.slab[i]
		if st.pair != p || st.base != e.Weight/r.maxW {
			t.Fatalf("%s: slab[%d] = %v base %v, want %v base %v", label, i, st.pair, st.base, p, e.Weight/r.maxW)
		}
	}
	model := stateModel(t, label, r)
	for k, want := range model {
		p := want.pair
		rank, got := r.states.find(p)
		if got != want || r.states.at(rank) != want {
			t.Fatalf("%s: find(%v) = rank %d state %p, want %p", label, p, rank, got, want)
		}
		_, isEdge := first[k]
		if _, inCSR := r.states.edgeRank(p); inCSR != isEdge {
			t.Fatalf("%s: pair %v in CSR = %v, edge = %v", label, p, inCSR, isEdge)
		}
	}
	for i := 0; i < 200; i++ {
		p := blocking.MakePair(rng.Intn(ids), rng.Intn(ids))
		if _, st := r.states.find(p); (st != nil) != (model[pairKey(p)] != nil) {
			t.Fatalf("%s: probe %v found %v, tracked %v", label, p, st != nil, model[pairKey(p)] != nil)
		}
	}
	n := int32(len(r.states.slab) + len(r.states.more))
	for _, e := range r.queue.items {
		if e.rank < 0 || e.rank >= n {
			t.Fatalf("%s: queue entry rank %d outside the store's %d", label, e.rank, n)
		}
	}
	return model
}

// TestPairStatesMatchMap is the store's property test. On random edge
// lists (duplicates and both orientations included) it checks a fresh
// resolver, then a Reseed and a Retract with history, against the map
// the store replaced: the tracked pairs are exactly the old map's keys —
// the new edges, plus Reseed's executed or discovered survivors, plus
// the pairs a replay of the history's merges tracks — each found at its
// one state, scored under the matcher, with the history Reseed carries
// over intact (a pair that can never match is done, and only a pair
// that can match re-opens) and the history Retract derives equal to
// that replay's (replayMerges).
func TestPairStatesMatchMap(t *testing.T) {
	m, pool := hardWorld(t, 36, 80)
	ids := m.Collection().Len()
	discovered := 0
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		label := fmt.Sprintf("trial %d", trial)
		edges := randomEdges(rng, pool, ids, 50+rng.Intn(400))
		r := NewResolver(m, edges, Config{})
		checkStates(t, label+"/new", r, edges, ids, rng)

		trace := r.RunBudget(1 + rng.Intn(120)).Trace
		before := stateModel(t, label+"/run", r)
		old := make(map[uint64]history, len(before))
		for k, st := range before {
			old[k] = history{st.boost, st.done, st.discovered, st.recheck}
		}

		edges = randomEdges(rng, pool, ids, 50+rng.Intn(400))
		r.Reseed(m, edges)
		after := checkStates(t, label+"/reseed", r, edges, ids, rng)
		newEdge := make(map[uint64]bool)
		for _, e := range edges {
			newEdge[pairKey(blocking.MakePair(e.A, e.B))] = true
		}
		for k, h := range old {
			st := after[k]
			if kept := newEdge[k] || h.done || h.discovered; (st != nil) != kept {
				t.Fatalf("%s/reseed: pair %v tracked %v, want %v", label, keyOf(k), st != nil, kept)
			}
			if st == nil {
				continue
			}
			dead := !m.CanMatch(st.vsim)
			reopened := newEdge[k] && h.done && !dead && !r.cl.Same(st.pair.A, st.pair.B)
			want := history{h.boost, h.done && !reopened || dead, h.discovered, h.recheck || reopened}
			if got := (history{st.boost, st.done, st.discovered, st.recheck}); got != want || st.vsim != m.ValueSim(st.pair.A, st.pair.B) {
				t.Fatalf("%s/reseed: pair %v history %+v (score %v), want %+v", label, st.pair, got, st.vsim, want)
			}
		}
		for k := range after {
			if _, was := old[k]; !was && !newEdge[k] {
				t.Fatalf("%s/reseed: pair %v tracked from nowhere", label, keyOf(k))
			}
		}

		trace = append(trace, r.RunBudget(1+rng.Intn(120)).Trace...)
		edges = randomEdges(rng, pool, ids, 50+rng.Intn(400))
		r.Retract(m, edges, trace)
		after = checkStates(t, label+"/retract", r, edges, ids, rng)
		discovered += len(r.states.more)
		want := replayMerges(r, edges, trace)
		if len(after) != len(want) {
			t.Fatalf("%s/retract: store tracks %d pairs, the merges replay %d", label, len(after), len(want))
		}
		for k, w := range want {
			st := after[k]
			if st == nil {
				t.Fatalf("%s/retract: pair %v missing from the store", label, keyOf(k))
			}
			if got := (history{st.boost, st.done, st.discovered, st.recheck}); got != w || st.vsim != m.ValueSim(st.pair.A, st.pair.B) {
				t.Fatalf("%s/retract: pair %v history %+v (score %v), want %+v", label, st.pair, got, st.vsim, w)
			}
		}
	}
	if discovered == 0 {
		t.Fatal("no pair outside the edge lists was ever tracked: the map half went untested")
	}
}

// history is the part of a pair state the rebuild rules carry or
// derive.
type history struct {
	boost                     float64
	done, discovered, recheck bool
}

// replayMerges is the map Retract's store must equal: every retained
// edge fresh, done if it can never match, then, for each matched step
// in order, the pair marked executed (tracked as in the step when no
// edge retains it) and, when it unites two clusters, one boost to every
// open cross pair of the two sides' neighbors, discovering the
// untracked ones (done, and never boosted, if they can never match).
// Failed steps contribute nothing. It reads the resolver's rebuilt matcher and
// config only.
func replayMerges(r *Resolver, edges []metablocking.Edge, trace []Step) map[uint64]history {
	m := r.matcher
	dead := func(p blocking.Pair) bool { return !m.CanMatch(m.ValueSim(p.A, p.B)) }
	want := make(map[uint64]history)
	for _, e := range edges {
		p := blocking.MakePair(e.A, e.B)
		want[pairKey(p)] = history{done: dead(p)}
	}
	col := m.Collection()
	cl := match.NewClustersFor(col)
	for _, s := range trace {
		if !s.Matched {
			continue
		}
		k := pairKey(blocking.MakePair(s.A, s.B))
		h, ok := want[k]
		if !ok {
			h.discovered = s.Discovered
		}
		h.done = true
		want[k] = h
		if !cl.Merge(s.A, s.B) {
			continue
		}
		for _, x := range r.matcher.Neighbors(s.A) {
			for _, y := range r.matcher.Neighbors(s.B) {
				p := blocking.MakePair(x, y)
				if x == y || (col.NumLiveKBs() > 1 && !col.CrossKB(x, y)) {
					continue
				}
				h, ok := want[pairKey(p)]
				if !ok {
					h = history{done: dead(p), discovered: true}
					want[pairKey(p)] = h
				}
				if h.done {
					continue // a replayed match, resolved, or a dead pair: never re-opened
				}
				h.boost += neighborBoost
				want[pairKey(p)] = h
			}
		}
	}
	return want
}

// keyOf is the inverse of pairKey, for messages.
func keyOf(k uint64) blocking.Pair {
	return blocking.Pair{A: int(k >> 32), B: int(uint32(k))}
}
