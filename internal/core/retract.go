package core

import (
	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// Retract rebuilds the resolver from its evidence after the corpus
// changed: m is a matcher rebuilt over the live collection (IDF weights
// are global, so every value similarity may have shifted), edges is the
// freshly pruned comparison list over it, and steps is the resolution
// history — the session's matched steps over live descriptions, in
// their original execution order. It is the one rebuild rule for every
// wave, ingest and eviction alike.
//
// Only matched steps are evidence. Retract replays them and ignores
// every other step, so Retract(m, edges, fullTrace) and
// Retract(m, edges, merges) build the same resolver:
//
//   - Clusters restart as singletons; each matched step re-merges its
//     pair, so matches among survivors stay resolved — including pairs
//     like (a, c) whose direct match was redundant while an evicted b
//     connected them — while clusters held together only by departed
//     members fall apart.
//   - Each replayed merge re-runs the update phase (propagate):
//     neighbor boosts and discovered pairs are re-derived from the live
//     evidence alone, so priority credit and discovery that flowed from
//     a departed description's matches vanish with it.
//   - A matched pair stays executed and is never re-spent.
//   - A failed comparison is forgotten. If the new pruning retains the
//     pair, it is queued as a fresh pair — its decision was made under
//     IDF weights that have since moved; if not, it is gone unless a
//     replayed merge discovers it again.
//   - Pairs touching evicted descriptions leave the queue entirely:
//     the new edge list cannot contain them, the replay never
//     recreates them, and their states are discarded.
//
// The replay looks each matched pair up in the fresh store — the edge
// CSR first, then the map of pairs outside the edge list — and adds
// one the new pruning no longer retains to that map.
//
// Every tracked pair is scored under m (index, and the replay's
// discoveries), and one that can never match is never queued (Gated).
//
// When steps holds no match, the retracted resolver is
// indistinguishable from NewResolver(m, edges, cfg): the same states,
// the same priorities, the same pop sequence. That is what makes
// mutate-then-resolve bit-identical to a from-scratch session over the
// live corpus.
func (r *Resolver) Retract(m *match.Matcher, edges []metablocking.Edge, steps []Step) {
	r.matcher = m
	r.cl = match.NewClustersFor(m.Collection())

	// Fresh, scored states for the retained comparisons, and a queue of
	// those that can match — with no history, this is all NewResolver
	// does.
	r.index(edges)
	r.schedule()

	// Replay the merges through the live machinery: done flags mark the
	// matched pairs, merges rebuild the clusters, and each merge re-runs
	// propagate — the same boosts and discoveries the update phase
	// produced originally, minus everything that flowed through a
	// departed description. Extra entries pushed for already-queued
	// pairs are harmless: the queue is lazy, and stale or duplicate
	// entries are skipped on pop.
	for _, s := range steps {
		if !s.Matched {
			continue
		}
		p := blocking.MakePair(s.A, s.B)
		_, st := r.states.find(p)
		if st == nil {
			// Matched but no longer retained by pruning (or never proposed
			// by blocking): keep it tracked and executed, so neighbor
			// evidence does not re-discover it.
			_, st = r.states.add(pairState{pair: p, vsim: m.ValueSim(p.A, p.B), discovered: s.Discovered})
		}
		st.done = true
		if r.cl.Merge(p.A, p.B) {
			r.propagate(p.A, p.B)
		}
	}
}
