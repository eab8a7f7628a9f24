package pipeline

import "repro/internal/kb"

// State is the latest front-end result over a source collection that
// keeps changing. Start builds it; Engine.Ingest and Engine.Evict re-run
// the whole front-end over the live source, whatever changed. Front is
// therefore, by construction, what Run over the same source returns.
// No session keeps one — a session pass calls Run and drops the front
// end — so State, Start and Engine.Ingest/Evict are kept only for the
// frozen benchmark's layer probe (ROADMAP item 1).
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

// Start runs a full front-end pass through the engine and returns the
// state, with Front holding the pass's outputs. Descriptions added to
// or evicted from src afterwards are picked up by the next
// Engine.Ingest or Engine.Evict.
func Start(e Engine, src *kb.Collection, opt Options) (*State, error) {
	st := &State{src: src, opt: opt}
	if err := st.pass(e); err != nil {
		return nil, err
	}
	return st, nil
}

// pass is Engine.Ingest and Engine.Evict for every engine: it runs the
// front-end over the live source and commits the result only once
// every stage has succeeded, so a failed pass leaves the state as it
// was and a retry redoes the same work.
func (st *State) pass(e Engine) error {
	fe, err := Run(e, st.src, st.opt)
	if err != nil {
		return err
	}
	st.Front = fe
	st.LastUpdate = UpdateStats{EdgesTouched: fe.Graph.NumEdges(), Rebuilt: true}
	st.LastReprune = RepruneStats{Full: true}
	return nil
}
