// The parallel matching engine: speculative scoring, serial commit.
//
// The progressive loop's dominant cost is value similarity — TF-IDF
// cosine over token evidence — while everything that orders and
// commits comparisons (priorities, heap maintenance, neighbor
// similarity, cluster merges, boost propagation) depends on the
// evolving cluster state and must stay sequential to preserve the
// paper's schedule. The engine splits each step accordingly:
//
//   - Scoring phase (parallel): workers precompute ValueSim in
//     pipelined waves, streamed from a priority-sorted snapshot of
//     the queued pairs plus the pairs the update phase boosts or
//     discovers as the run evolves. The snapshot is taken whenever the
//     engine (re)starts — on the first Run and on the first Run after
//     every Reseed or Retract — and a restart's queue is in no
//     particular order, so the snapshot pays one pdqsort by priority.
//     Value similarity is independent of the cluster state, so a
//     speculative score is never wrong — at worst it is wasted, when a
//     merge resolves the pair transitively before it is popped.
//   - Commit phase (serial): the resolver's unmodified pop →
//     revalidate → decide → merge → propagate loop runs on one
//     goroutine, reading speculative scores instead of recomputing
//     them; scores for pairs invalidated by merges are left dead in
//     their pair state and never consulted.
//
// Because the commit path is the sequential algorithm itself and
// ValueSim is deterministic, the trace is bit-identical to the
// sequential resolver for any worker count and any budget — the same
// discipline the repo's front-end engines follow, and the same
// decomposition Theoretically-Efficient Parallel DBSCAN applies to
// clustering (arXiv:1912.06255): parallelize the state-independent
// distance work, serialize the state mutation order.
package core

import (
	"cmp"
	"slices"
	"sync"
)

// maxInflight bounds how many cursor waves may be scoring
// concurrently: one being merged, one in flight behind it. Fresh
// waves (just-boosted pairs, see prepare) may push the total to
// maxPending. The waves channel is buffered to maxPending so
// collector goroutines can never block, even if the resolver is
// abandoned mid-run.
const (
	maxInflight = 2
	maxPending  = maxInflight + 2
)

// waveItem is one speculation slot: the committer fills st before
// launch, a single worker writes v and ns, and the committer reads
// them after the wave's channel handoff — no slot is ever shared.
type waveItem struct {
	st *pairState
	v  float64
	ns float64 // neighbor similarity, exact only at the wave's version
}

// wave is one launched batch of speculation slots plus the cluster
// version the committer stamped at launch. Value similarity is
// cluster-independent and always exact; neighbor similarity is read
// off the live union-find and is exact only while no merge lands —
// i.e. while the cluster version still equals ver. The committer
// checks that at use and recomputes inline otherwise, so a stale
// speculation costs one redundant computation, never a wrong trace.
type wave struct {
	items []waveItem
	ver   uint64
}

// speculator coordinates the scoring workers for one resolver. All of
// its methods run on the committer goroutine; only the strided loop
// inside launch runs on workers, and each worker touches nothing but
// the immutable matcher, the pairs of its slots, and the slots' v
// fields. No locks and no shared maps: wave hand-off is one buffered
// channel, and all bookkeeping lives in the pair states the committer
// already owns.
//
// Speculation draws from two sources. The queue is a snapshot of
// every pair waiting in the resolver's queue when the engine starts,
// in scheduling-priority order: the resolver will execute almost all
// of them, in roughly this order, so a cursor streaming the queue
// through pipelined waves keeps the workers exactly where the
// committer is about to be. The fresh list collects pairs the update
// phase boosts or discovers mid-run — the only pairs the snapshot
// cannot know — and jumps the cursor, because a just-boosted pair
// tends to pop within a step or two.
type speculator struct {
	r        *Resolver
	workers  int
	waveSize int
	queue    []*pairState // initial pairs, highest priority first
	cursor   int          // next queue index to hand to a wave
	fresh    []*pairState // pairs the update phase just pushed
	waves    chan wave
	pending  int // waves launched but not merged
}

func newSpeculator(r *Resolver, workers int) *speculator {
	// Snapshot the queue in descending priority. A fresh resolver's
	// Floyd heap over weight-sorted edges is often already in that
	// order, where pdqsort runs in linear time; after a Reseed or
	// Retract it never is (the bias differs between pairs), and the
	// sort is a full O(n log n) pass on the 16-byte entries. The
	// comparator reads prio only — touching the states would chase a
	// pointer per comparison — so ties land in pdqsort's deterministic
	// but unstable order: the order only steers speculation, never the
	// trace.
	snap := slices.Clone(r.queue.items)
	slices.SortFunc(snap, func(a, b entry) int { return cmp.Compare(b.prio, a.prio) })
	queue := make([]*pairState, len(snap))
	for i, e := range snap {
		queue[i] = e.st
	}
	return &speculator{
		r:        r,
		workers:  workers,
		waveSize: workers * 64,
		queue:    queue,
		waves:    make(chan wave, maxPending),
	}
}

// prepare runs before every pop: it merges any completed waves and
// keeps up to maxInflight waves scoring ahead of the committer.
// remaining caps the speculation depth under a finite budget
// (0 = unlimited) so a budget-1 leg never scores a full wave.
func (s *speculator) prepare(remaining int) {
	s.drain(false)
	size := s.waveSize
	if remaining > 0 && size > 2*remaining+8 {
		// Pops skip stale and transitively-resolved entries, so keep a
		// small margin beyond the budget itself.
		size = 2*remaining + 8
	}
	// Freshly boosted pairs pop soonest, often on the very next step;
	// they get a micro-wave of their own immediately, beyond the
	// cursor-wave cap, rather than waiting for a slot. A boost burst
	// after a hub merge can exceed the wave size — never drop the
	// overflow, it is the best-qualified speculation there is.
	if len(s.fresh) > 0 && s.pending < maxPending {
		out := make([]waveItem, 0, len(s.fresh))
		for _, st := range s.fresh {
			s.take(st, &out)
		}
		s.fresh = s.fresh[:0]
		if len(out) > 0 {
			s.launch(out)
		}
	}
	for s.pending < maxInflight && s.cursor < len(s.queue) {
		out := make([]waveItem, 0, size)
		for s.cursor < len(s.queue) && len(out) < size {
			s.take(s.queue[s.cursor], &out)
			s.cursor++
		}
		if len(out) == 0 {
			return
		}
		s.launch(out)
	}
}

// take appends the pair's slot to the wave being built and marks it
// in flight, unless it is already scored, in flight, executed, or
// resolved transitively.
func (s *speculator) take(st *pairState, out *[]waveItem) {
	if st.done || st.hasVsim || st.inflight {
		return
	}
	if s.r.cl.Same(st.pair.A, st.pair.B) {
		return // will be skipped, not executed
	}
	st.inflight = true
	*out = append(*out, waveItem{st: st})
}

// noteFresh records a pair the update phase just pushed, so the next
// wave scores it before anything else.
func (s *speculator) noteFresh(st *pairState) {
	s.fresh = append(s.fresh, st)
}

// launch starts one wave: workers score disjoint strides of the wave
// into their own slots, and a collector hands the completed wave to
// the committer through the buffered channel. Each slot gets the
// pair's value similarity (always exact) and its neighbor similarity
// read lock-free off the live cluster state, stamped with the cluster
// version at launch — exact for as long as that version holds.
func (s *speculator) launch(items []waveItem) {
	var wg sync.WaitGroup
	workers := s.workers
	if workers > len(items) {
		workers = len(items)
	}
	m := s.r.matcher
	uf := s.r.cl.UF()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				p := items[i].st.pair
				items[i].v = m.ValueSim(p.A, p.B)
				items[i].ns = m.NeighborSimRead(p.A, p.B, uf)
			}
		}(w)
	}
	wv := wave{items: items, ver: uf.Version()}
	go func() {
		wg.Wait()
		s.waves <- wv
	}()
	s.pending++
}

// drain merges completed waves into the pair states; when block is
// set it waits for at least one in-flight wave to finish.
func (s *speculator) drain(block bool) {
	for s.pending > 0 {
		var wv wave
		if block {
			wv = <-s.waves
			block = false
		} else {
			select {
			case wv = <-s.waves:
			default:
				return
			}
		}
		s.pending--
		for _, it := range wv.items {
			it.st.inflight = false
			it.st.vsim, it.st.hasVsim = it.v, true
			it.st.nsim, it.st.nsimVer, it.st.hasNsim = it.ns, wv.ver, true
		}
	}
}

// shutdown waits out every in-flight wave, leaving no goroutine
// reading the matcher and no slot marked in flight — the quiescence
// Reseed needs before it swaps the matcher and invalidates the value
// memos the waves were filling.
func (s *speculator) shutdown() {
	for s.pending > 0 {
		s.drain(true)
	}
}

// valueSim hands the committer the pair's value similarity: from the
// state's memo, from a wave still in flight (waiting for it), or
// computed inline on a speculation miss.
func (s *speculator) valueSim(st *pairState) float64 {
	for st.inflight {
		s.drain(true)
	}
	if st.hasVsim {
		return st.vsim
	}
	v := s.r.matcher.ValueSim(st.pair.A, st.pair.B)
	st.vsim, st.hasVsim = v, true
	return v
}
