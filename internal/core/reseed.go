package core

import (
	"cmp"
	"slices"

	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
)

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
// When nothing has been executed yet, the reseeded resolver is
// indistinguishable from NewResolver(m, edges, cfg): the same states,
// the same heap layout (entries in edge order, Floyd-heapified), the
// same priorities — which is what makes ingest-then-resolve
// bit-identical to a from-scratch session.
func (r *Resolver) Reseed(m *match.Matcher, edges []metablocking.Edge) {
	r.matcher = m
	r.cl.GrowFor(m.Collection())

	r.maxW = 0
	for _, e := range edges {
		if e.Weight > r.maxW {
			r.maxW = e.Weight
		}
	}
	if r.maxW == 0 {
		r.maxW = 1
	}

	old := r.states
	r.states = make(map[uint64]*pairState, len(edges))
	slab := make([]pairState, len(edges))
	used := 0
	entries := make([]entry, 0, len(edges))
	for _, e := range edges {
		p := blocking.MakePair(e.A, e.B)
		k := pairKey(p)
		if _, dup := r.states[k]; dup {
			continue
		}
		st := old[k]
		if st == nil {
			st = &slab[used]
			used++
			st.pair = p
		} else {
			delete(old, k)
			st.hasVsim, st.vsim = false, 0
		}
		st.base = e.Weight / r.maxW
		if st.done && !r.cl.Same(p.A, p.B) {
			// Executed but unmatched, and still retained: the ingest
			// changed the IDF landscape its decision was made under, so
			// it gets re-examined — the streaming form of a recheck.
			st.done = false
			st.recheck = true
		}
		r.states[k] = st
		if !st.done {
			entries = append(entries, entry{st: st, prio: r.priority(p, st)})
		}
	}

	// Survivors outside the new edge list: executed pairs keep their
	// history (a recheck must not re-discover them as fresh pairs), and
	// discovered pairs stay queued — their evidence came from the
	// update phase, which re-pruning does not speak for.
	leftovers := make([]*pairState, 0)
	for k, st := range old {
		if !st.done && !st.discovered {
			continue
		}
		st.hasVsim, st.vsim = false, 0
		r.states[k] = st
		if !st.done {
			leftovers = append(leftovers, st)
		}
	}
	slices.SortFunc(leftovers, func(a, b *pairState) int {
		return cmp.Compare(pairKey(a.pair), pairKey(b.pair))
	})
	for _, st := range leftovers {
		entries = append(entries, entry{st: st, prio: r.priority(st.pair, st)})
	}
	r.queue = newQueue(entries)
}
