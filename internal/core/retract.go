package core

import (
	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// Retract rebuilds the resolver after descriptions left the corpus: m
// is a matcher rebuilt over the survivors (evicted documents have
// decayed out of the IDF weights), edges is the freshly re-pruned
// comparison list over the surviving blocking graph, and steps is the
// surviving execution history — the session's cumulative trace with
// every step touching an evicted description removed, in its original
// execution order.
//
// Unlike Reseed — which keeps the cluster state because ingestion is
// monotonic — eviction can split clusters: a match chain a—b—c loses
// its middle when b leaves. Retract therefore rebuilds the resolution
// state from first principles by replaying the surviving history:
//
//   - Clusters restart as singletons; each surviving matched step
//     re-merges its pair, so matches among survivors stay resolved —
//     including pairs like (a, c) above whose direct match was
//     redundant while b connected them — while clusters held together
//     only by evicted members fall apart.
//   - Each replayed merge re-runs the update phase (propagate):
//     neighbor boosts and discovered pairs are re-derived from the
//     surviving evidence alone, so priority credit and discovery that
//     flowed from an evicted description's matches vanish with it.
//   - Executed pairs stay executed (never re-spent); executed-but-
//     failed pairs still retained by the new pruning re-open as
//     rechecks, exactly as Reseed does — their value similarity was
//     decided under the departed corpus's IDF weights.
//   - Pairs touching evicted descriptions leave the queue entirely:
//     the new edge list cannot contain them, the replay never
//     recreates them, and their states are discarded.
//
// The replay looks each step's pair up in the fresh store — the edge
// CSR first, then the map of pairs outside the edge list — and adds an
// executed pair the new pruning no longer retains to that map.
//
// When steps is empty — nothing executed yet — the retracted resolver
// is indistinguishable from NewResolver(m, edges, cfg): the same
// states, the same heap layout, the same priorities. That is what
// makes evict-then-resolve bit-identical to a from-scratch session
// over the surviving corpus.
func (r *Resolver) Retract(m *match.Matcher, edges []metablocking.Edge, steps []Step) {
	r.matcher = m
	r.cl = match.NewClustersFor(m.Collection())

	// Fresh states for the retained comparisons, heapified in edge
	// order — with no history, this is all NewResolver does.
	r.queue = newQueue(r.index(edges, nil))

	// Replay the surviving history through the live machinery: done
	// flags mark budget already spent, merges rebuild the clusters, and
	// each merge re-runs propagate — the same boosts, discoveries, and
	// recheck re-openings the update phase produced originally, minus
	// everything that flowed through an evicted description. Extra heap
	// entries pushed for already-queued pairs are harmless: the heap is
	// lazy, and stale or duplicate slots are skipped on pop.
	for _, s := range steps {
		p := blocking.MakePair(s.A, s.B)
		_, st := r.states.find(p)
		if st == nil {
			// Executed but no longer retained by pruning (or never
			// proposed by blocking): keep the history so the pair is not
			// re-discovered as fresh.
			_, st = r.states.add(pairState{pair: p, discovered: s.Discovered})
		}
		st.done = true
		st.recheck = false
		if s.Matched && r.cl.Merge(p.A, p.B) {
			r.propagate(p.A, p.B)
		}
	}

	// Executed-but-failed pairs still retained by the new pruning:
	// their decision was made under the departed corpus's IDF weights,
	// so they re-open as rechecks (Reseed's rule), unless the replay
	// already re-opened or transitively resolved them. Only a replay
	// leaves an edge state executed.
	for i := range r.states.slab {
		st := &r.states.slab[i]
		if st.done && !r.cl.Same(st.pair.A, st.pair.B) {
			st.done = false
			st.recheck = true
			r.queue.Push(entry{rank: int32(i), prio: r.priority(st.pair, st)})
		}
	}
}
