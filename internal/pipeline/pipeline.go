// Package pipeline is the engine layer of the resolution front-end: it
// dispatches every stage before matching — token blocking, block
// purging, block filtering, blocking-graph construction, and pruning —
// through one Engine interface. Shared is its one implementation: the
// single-threaded reference functions of internal/blocking and
// internal/metablocking plus two parallel kernels — tokenization on
// every worker before token blocking, and the graph kernel over worker
// id chunks before weighting. At one worker (Sequential, its zero
// value) both kernels run inline. The Engine interface stays as the
// seam that tests wrap to count passes and inject stage faults.
//
// Every worker count is bit-identical on every stage — the same blocks
// in the same order, the same edges with the same float weights; the
// differential tests in this package and in internal/parmeta assert it
// against the reference functions. Select picks the worker count, and
// Run drives a full front-end pass.
//
// There is one front-end plan: Run calls the engine's own stage
// methods in order, each handing the next a materialized
// blocking.Collection. A session calls Run once per pass and keeps no
// front end between passes: no inverted index, graph diff, pruning memo
// or record of what changed. On every workload of record that pass is
// cheaper than maintaining the previous result was. State, Start and
// Engine.Ingest/Evict — the same pass, over a source a State holds —
// are kept only because the frozen benchmark's layer probe reads them
// (ROADMAP item 1); no session calls them.
package pipeline

import (
	"fmt"

	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
	"repro/internal/tokenize"
)

// Engine runs the pipeline front-end stages; Run calls them in order.
// Shared is the implementation; test wrappers around it must keep its
// results to the bit: blocking and cleaning return the same blocks in
// the same order, Build returns the same edges with the same weights,
// Prune retains the same edges in the same output order.
type Engine interface {
	// Name identifies the engine in logs, benchmarks, and test labels.
	Name() string
	// TokenBlocking tokenizes every live description and builds one
	// block per token, in ascending key order (blocks inducing no
	// comparisons are dropped).
	TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error)
	// Purge removes oversized blocks (maxSize 0 = automatic cap).
	Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error)
	// Filter retains each description only in its ⌈ratio·|blocks|⌉
	// smallest blocks.
	Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error)
	// Build constructs the weighted blocking graph.
	Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error)
	// Prune returns the retained comparisons, sorted by descending
	// weight (ties by ascending (A, B)).
	Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error)
	// Ingest brings the state up to date with its source: it re-runs
	// TokenBlocking → Purge → Filter → Build → Prune over the live
	// source — one pass per call, whatever changed — and, on success,
	// replaces st.Front; on failure the state is left as it was.
	// st.Front afterwards is what Run over the same source returns.
	// Only the frozen benchmark's layer probe calls it (ROADMAP item 1).
	Ingest(st *State) error
	// Evict is the same operation as Ingest, kept under its own name
	// for the same frozen read.
	Evict(st *State) error
}

// Select resolves a worker count to the engine — the mapping
// minoaner.Config documents: workers ≤ 0 means one worker per CPU,
// anything else is taken literally. mapReduce is kept for the frozen
// benchmark read, ROADMAP item 1, and must be false: Select panics if
// it is true, which no caller passes.
func Select(workers int, mapReduce bool) Engine {
	if mapReduce {
		panic("pipeline: Select: mapReduce must be false")
	}
	return Shared{Workers: parmeta.Workers(workers)}
}

// Options configures a full front-end pass.
type Options struct {
	// Tokenize controls token extraction for blocking.
	Tokenize tokenize.Options
	// PurgeMaxBlockSize caps block size (0 = automatic; negative =
	// skip purging).
	PurgeMaxBlockSize int
	// FilterRatio keeps each description in this fraction of its
	// smallest blocks (≤ 0 = skip filtering).
	FilterRatio float64
	// Scheme is the edge-weighting scheme.
	Scheme metablocking.Scheme
	// Pruning is the pruning algorithm.
	Pruning metablocking.Pruning
	// Reciprocal requires both endpoints to retain an edge in
	// node-centric pruning.
	Reciprocal bool
}

// pruneOptions assembles the engine-facing pruning options of a pass
// over a cleaned collection with the given Σ|b|.
func (opt Options) pruneOptions(assignments int) metablocking.PruneOptions {
	return metablocking.PruneOptions{Reciprocal: opt.Reciprocal, Assignments: assignments}
}

// FrontEnd is the output of a full front-end pass: the cleaned block
// collection, the weighted blocking graph, and the retained
// comparisons in scheduling order.
type FrontEnd struct {
	Blocks *blocking.Collection
	Graph  *metablocking.Graph
	Edges  []metablocking.Edge
}

// Run drives token blocking → purging → filtering → graph build →
// pruning through one engine, calling its stage methods in that order
// (purging only when PurgeMaxBlockSize ≥ 0, filtering only when
// FilterRatio > 0). The result is identical for every worker count.
func Run(e Engine, src *kb.Collection, opt Options) (*FrontEnd, error) {
	col, err := e.TokenBlocking(src, opt.Tokenize)
	if err != nil {
		return nil, fmt.Errorf("pipeline(%s): blocking: %w", e.Name(), err)
	}
	if opt.PurgeMaxBlockSize >= 0 {
		if col, err = e.Purge(col, opt.PurgeMaxBlockSize); err != nil {
			return nil, fmt.Errorf("pipeline(%s): purging: %w", e.Name(), err)
		}
	}
	if opt.FilterRatio > 0 {
		if col, err = e.Filter(col, opt.FilterRatio); err != nil {
			return nil, fmt.Errorf("pipeline(%s): filtering: %w", e.Name(), err)
		}
	}
	g, err := e.Build(col, opt.Scheme)
	if err != nil {
		return nil, fmt.Errorf("pipeline(%s): graph build: %w", e.Name(), err)
	}
	edges, err := e.Prune(g, opt.Pruning, opt.pruneOptions(col.Assignments()))
	if err != nil {
		return nil, fmt.Errorf("pipeline(%s): pruning: %w", e.Name(), err)
	}
	return &FrontEnd{Blocks: col, Graph: g, Edges: edges}, nil
}
