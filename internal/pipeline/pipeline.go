// Package pipeline is the engine layer of the resolution front-end: it
// dispatches every stage before matching — token blocking, block
// purging, block filtering, blocking-graph construction, and pruning —
// through one Engine interface with three interchangeable
// realizations:
//
//   - Sequential: the single-threaded reference implementations in
//     internal/blocking and internal/metablocking — the oracle every
//     other engine is differentially tested against.
//   - Shared: the shared-memory parallel engine — sharded token
//     blocking and block cleaning (this package) plus the sharded
//     graph build and pruning of internal/parmeta.
//   - MapReduce: the paper's cluster dataflow simulated on the
//     in-process MapReduce engine (internal/parblock), kept for
//     didactic runs and cross-engine differential tests.
//
// Sequential and Shared are bit-identical on every stage — the same
// blocks in the same order, the same edges with the same float
// weights — for any worker count; the differential tests in this
// package and in internal/parmeta assert it. MapReduce produces the
// same blocks and the same retained comparisons, with edge weights
// equal up to round-off (its reducers re-serialize and re-sum float
// evidence in shuffle order — a property it has had since it was the
// paper's didactic dataflow, bounded at 1e-9 by its tests). Select
// picks the engine a Config implies, and Run drives a full front-end
// pass through any engine uniformly.
//
// There is one front-end plan: Run calls the engine's own stage
// methods in order, each handing the next a materialized
// blocking.Collection. A streaming session (State) keeps no inverted
// index, graph diff or pruning memo between waves: when its source
// gained or lost descriptions, Engine.Ingest and Engine.Evict run the
// same pass Run does over the live source and swap the result in. On
// every workload of record that pass is cheaper than maintaining the
// previous result was.
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
// Implementations must match the Sequential reference on every stage:
// blocking and cleaning return the same blocks in the same order, Build
// returns the same edges, Prune retains the same edges in the same
// output order (Shared to the bit, MapReduce up to float round-off in
// weights).
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
	// Ingest brings the state up to date with its source: when
	// descriptions were added, merged into or tombstoned since the last
	// pass, the engine re-runs TokenBlocking → Purge → Filter → Build →
	// Prune over the live source and, on success, replaces st.Front;
	// on failure the state is left as it was. With nothing pending it is
	// a no-op. st.Front afterwards is what Run over the same source
	// returns, so the engines agree exactly as they do on Run.
	Ingest(st *State) error
	// Evict is the same operation as Ingest. Both names stay because
	// callers attribute a wave's cost by what it carried — arrivals or
	// departures — and fault-injecting tests aim at one or the other.
	Evict(st *State) error
}

// Select resolves a (workers, mapReduce) configuration to its engine —
// the mapping minoaner.Config documents: workers ≤ 0 means one worker
// per CPU, 1 worker is the sequential reference, more than one is the
// shared-memory engine unless mapReduce routes the stages through the
// in-process MapReduce dataflow instead.
func Select(workers int, mapReduce bool) Engine {
	w := parmeta.Workers(workers)
	if w <= 1 {
		return Sequential{}
	}
	if mapReduce {
		return MapReduce{Workers: w}
	}
	return Shared{Workers: w}
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
	// KPerNode pins CNP's per-node budget (0 = the paper's default,
	// ⌈assignments/|V|⌉, which moves as a streaming session's corpus
	// does).
	KPerNode int
}

// pruneOptions assembles the engine-facing pruning options of a pass
// over a cleaned collection with the given Σ|b|.
func (opt Options) pruneOptions(assignments int) metablocking.PruneOptions {
	return metablocking.PruneOptions{
		KPerNode:    opt.KPerNode,
		Reciprocal:  opt.Reciprocal,
		Assignments: assignments,
	}
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
// FilterRatio > 0). The result is identical for every engine and worker
// count.
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
