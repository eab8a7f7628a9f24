package pipeline

import (
	"fmt"

	"repro/internal/kb"
)

// State is the front-end of a streaming resolution session: the latest
// front-end result over a source collection that keeps changing, and
// how much of that source the result covers. Start builds it;
// Engine.Ingest and Engine.Evict bring it up to date by re-running the
// whole front-end over the live source. Front is therefore, by
// construction, what Run over the same source returns.
type State struct {
	// Front is the latest front-end result: the cleaned blocks, the
	// blocking graph, and the pruned comparisons in scheduling order.
	Front *FrontEnd
	// LastUpdate and LastReprune report the graph and pruning work of
	// the most recent pass. Every pass rebuilds the graph and prunes it
	// in full, so they read "every edge, rebuilt, full" after each one —
	// the baseline a future delta rule has to beat.
	LastUpdate  UpdateStats
	LastReprune RepruneStats

	src *kb.Collection
	opt Options
	n   int // source descriptions covered so far; -1 after Rebase until the next pass
}

// UpdateStats reports the graph work of a front-end pass.
type UpdateStats struct {
	// EdgesTouched is how many graph edges the pass computed.
	EdgesTouched int
	// Rebuilt reports that the graph was built from scratch.
	Rebuilt bool
}

// RepruneStats reports the pruning work of a front-end pass.
type RepruneStats struct {
	// Full reports that every edge's verdict was derived anew.
	Full bool
}

// InSync reports that the state already covers every description,
// merge, and eviction in its source — an ingest or evict now would be
// a no-op.
func (st *State) InSync() bool { return !st.PendingIngest() && !st.PendingEvictions() }

// PendingEvictions reports whether the source holds tombstoned
// descriptions the state has not dropped yet.
func (st *State) PendingEvictions() bool { return st.src.HasEvicted() }

// PendingIngest reports whether the source holds additions or merges
// the state does not cover yet.
func (st *State) PendingIngest() bool { return st.src.Len() != st.n || st.src.HasMerged() }

// Covered returns how many source descriptions the state covers.
func (st *State) Covered() int { return st.n }

// Start runs a full front-end pass through the engine and returns the
// state, with Front holding the pass's outputs. Descriptions added to
// or evicted from src afterwards are picked up by Engine.Ingest and
// Engine.Evict.
func Start(e Engine, src *kb.Collection, opt Options) (*State, error) {
	st := &State{src: src, opt: opt}
	if err := st.pass(e); err != nil {
		return nil, err
	}
	return st, nil
}

// Rebase points the state at a new source — the compacted collection of
// an id-space compaction epoch, whose ids Front does not speak — so the
// next Engine.Ingest or Engine.Evict runs a full pass over it, even when
// it is empty. Front stays as it was until that pass commits.
func (st *State) Rebase(src *kb.Collection) { st.src, st.n = src, -1 }

// refresh is Engine.Ingest and Engine.Evict for every engine: when the
// source changed since the last pass, run the front-end over it again.
func (st *State) refresh(e Engine) error {
	if n := st.src.Len(); n < st.n {
		return fmt.Errorf("pipeline(%s): source shrank from %d to %d descriptions", e.Name(), st.n, n)
	}
	if st.InSync() {
		return nil
	}
	return st.pass(e)
}

// pass runs the front-end over the live source and commits the result.
// The source's pending merge and eviction lists are consumed only after
// every stage has succeeded, so a failed pass leaves the state as it
// was and a retry sees the same pending work.
func (st *State) pass(e Engine) error {
	n := st.src.Len()
	fe, err := Run(e, st.src, st.opt)
	if err != nil {
		return err
	}
	st.src.TakeMerged()
	st.src.DropTokens(st.src.TakeEvicted()) // tombstones stop pinning token slices
	st.n = n
	st.Front = fe
	st.LastUpdate = UpdateStats{EdgesTouched: fe.Graph.NumEdges(), Rebuilt: true}
	st.LastReprune = RepruneStats{Full: true}
	return nil
}
