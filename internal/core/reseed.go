package core

import (
	"cmp"
	"slices"

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
//     Pairs that failed an earlier comparison but are still retained
//     re-open as rechecks: their value similarity was computed under
//     the smaller corpus's IDF weights, and the batch may have changed
//     it — exactly the evidence-driven re-examination the paper's
//     update phase performs. Queued pairs that re-pruning no longer
//     retains are dropped, unless neighbor evidence discovered them —
//     discovery is matcher-driven, not blocking-driven, so those stay
//     queued.
//   - Memoized value similarities are invalidated wholesale: the new
//     matcher's IDF weights make them stale.
//
// The state store is rebuilt, not patched: the new edges get a fresh
// slab and CSR (index), each retained pair copies its history from the
// old store — found through the old CSR, or the old map for a pair
// outside the old edge list — and the surviving pairs outside the new
// edge list move to the new store's map, in pair order.
//
// When nothing has been executed yet, the reseeded resolver is
// indistinguishable from NewResolver(m, edges, cfg): the same states,
// the same heap layout (entries in edge order, Floyd-heapified), the
// same priorities.
func (r *Resolver) Reseed(m *match.Matcher, edges []metablocking.Edge) {
	r.matcher = m
	r.cl.GrowFor(m.Collection())

	old := r.states
	entries := r.index(edges)

	// Retained pairs take their history over, minus the memoized value
	// similarity (the matcher changed). An executed but unmatched pair
	// that is still retained re-opens as a recheck: the ingest changed
	// the IDF landscape its decision was made under.
	kept := entries[:0]
	for _, e := range entries {
		st := &r.states.slab[e.rank]
		if _, o := old.find(st.pair); o != nil {
			base := st.base
			*st = *o
			st.base = base
			st.hasVsim, st.vsim = false, 0
			if st.done && !r.cl.Same(st.pair.A, st.pair.B) {
				st.done = false
				st.recheck = true
			}
			if st.done {
				continue
			}
			e.prio = r.priority(st.pair, st)
		}
		kept = append(kept, e)
	}
	entries = kept

	// Survivors outside the new edge list: executed pairs keep their
	// history (a recheck must not re-discover them as fresh pairs), and
	// discovered pairs stay queued — their evidence came from the
	// update phase, which re-pruning does not speak for.
	var leftovers []pairState
	for st := range old.all() {
		if !st.done && !st.discovered {
			continue
		}
		if _, kept := r.states.edgeRank(st.pair); kept {
			continue // index took it over
		}
		leftovers = append(leftovers, *st)
	}
	slices.SortFunc(leftovers, func(a, b pairState) int {
		return cmp.Compare(pairKey(a.pair), pairKey(b.pair))
	})
	for _, st := range leftovers {
		st.hasVsim, st.vsim = false, 0
		rank, _ := r.states.add(st)
		if !st.done {
			entries = append(entries, entry{rank: rank, prio: r.priority(st.pair, &st)})
		}
	}
	r.queue = newQueue(entries)
}
