package core

import (
	"repro/internal/match"
	"repro/internal/metablocking"
)

// Reseed is unused by the session, which rebuilds after every wave
// with Retract; it is kept for the frozen benchmark's layer probe until
// ROADMAP item 1.
//
// Reseed replaces the resolver's comparison queue after an ingest: m
// is a matcher rebuilt over the grown collection (IDF weights are
// global, so every value similarity may have shifted) and edges is the
// freshly pruned comparison list. The cluster state and the execution
// history survive; everything schedule-related is rebuilt:
//
//   - Clusters grow to cover the new descriptions (existing merges are
//     kept — resolution is monotonic across ingests).
//   - Every retained edge gets a state with its new normalized base
//     weight. Matched pairs stay resolved and are never re-executed.
//     Pairs that failed an earlier comparison, or the gate, but are
//     still retained and can now match re-open as rechecks: their
//     value similarity was computed under
//     the smaller corpus's IDF weights, and the batch may have changed
//     it — exactly the evidence-driven re-examination the paper's
//     update phase performs. Queued pairs that re-pruning no longer
//     retains are dropped, unless neighbor evidence discovered them —
//     discovery is matcher-driven, not blocking-driven, so those stay
//     queued.
//   - Every tracked pair is rescored under the new matcher: the
//     retained edges through index, the pairs outside the edge list
//     here. A pair that can no longer match is done and never queued
//     (Gated); its history is kept.
//
// The state store is rebuilt, not patched: the new edges get a fresh
// slab and CSR (index), each retained pair copies its history from the
// old store — found through the old CSR, or the old map for a pair
// outside the old edge list — and the surviving pairs outside the new
// edge list move to the new store's map, in the old store's order. The
// queue is then rebuilt from the states (schedule).
//
// When nothing has been executed yet, the reseeded resolver is
// indistinguishable from NewResolver(m, edges, cfg): the same states,
// the same priorities, the same pop sequence.
func (r *Resolver) Reseed(m *match.Matcher, edges []metablocking.Edge) {
	r.matcher = m
	r.cl.GrowFor(m.Collection())

	old := r.states
	r.index(edges)

	// Retained pairs take their history over, keeping the new base
	// weight and value similarity. A failed or gated pair that is still
	// retained and can now match re-opens as a recheck: the ingest
	// changed the IDF landscape its decision was made under.
	for i := range r.states.slab {
		st := &r.states.slab[i]
		if _, o := old.find(st.pair); o != nil {
			base, vsim, dead := st.base, st.vsim, st.done
			*st = *o
			st.base, st.vsim = base, vsim
			if st.done && !dead && !r.cl.Same(st.pair.A, st.pair.B) {
				st.done = false
				st.recheck = true
			}
			st.done = st.done || dead
		}
	}

	// Survivors outside the new edge list: executed pairs keep their
	// history (a recheck must not re-discover them as fresh pairs), and
	// discovered pairs stay queued — their evidence came from the
	// update phase, which re-pruning does not speak for.
	for st := range old.all() {
		if !st.done && !st.discovered {
			continue
		}
		if _, kept := r.states.edgeRank(st.pair); kept {
			continue // index took it over
		}
		left := *st
		left.vsim = m.ValueSim(left.pair.A, left.pair.B)
		_, s := r.states.add(left)
		r.gate(s)
	}
	r.schedule()
}
