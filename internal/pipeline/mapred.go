package pipeline

import (
	"context"

	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/mapreduce"
	"repro/internal/metablocking"
	"repro/internal/parblock"
	"repro/internal/tokenize"
)

// MapReduce is the cluster-dataflow engine: blocking, block cleaning,
// graph construction, and node-centric pruning run as MapReduce jobs
// (internal/parblock), mirroring the paper's companion Hadoop
// realization. Only edge-centric pruning — a global top-K/mean the
// dataflow never defined — delegates to the sequential reference. The
// Runner decides where tasks execute: in-process goroutines (nil /
// LocalRunner, the single-node fast path) or `minoaner worker`
// subprocesses (ProcRunner) — the dataflow and its output are
// identical either way. Kept bit-identical to the Shared engine's
// results by the cross-engine differential tests.
type MapReduce struct {
	// Workers is the number of concurrent map/reduce tasks (> 1).
	Workers int
	// Runner executes the dataflow tasks (nil = in-process).
	Runner mapreduce.Runner
	// Totals, when non-nil, accumulates every job's counters across the
	// engine's lifetime — the source of the /status mrRetries and
	// mrShuffleBytes gauges.
	Totals *mapreduce.Counters

	// ctx cancels in-flight dataflow jobs; set via WithContext, never
	// mutated on a shared engine value.
	ctx context.Context
}

// WithContext returns a copy of the engine whose dataflow jobs run
// under ctx — cancellation stops an in-flight pass and surfaces
// ctx.Err(). Engines without a cancellable phase return themselves.
func WithContext(e Engine, ctx context.Context) Engine {
	if mr, ok := e.(MapReduce); ok {
		mr.ctx = ctx
		return mr
	}
	return e
}

// Name implements Engine.
func (MapReduce) Name() string { return "mapreduce" }

func (e MapReduce) cfg() mapreduce.Config {
	return mapreduce.Config{Workers: e.Workers, Runner: e.Runner, Totals: e.Totals}
}

func (e MapReduce) context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// TokenBlocking implements Engine via the token-blocking dataflow job.
func (e MapReduce) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	return parblock.TokenBlocking(e.context(), src, opts, e.cfg())
}

// Purge implements Engine via the histogram + keep dataflow jobs.
func (e MapReduce) Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error) {
	return parblock.Purge(e.context(), col, maxSize, e.cfg())
}

// Filter implements Engine via the rank + assignment dataflow jobs.
func (e MapReduce) Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error) {
	return parblock.Filter(e.context(), col, ratio, e.cfg())
}

// Build implements Engine.
func (e MapReduce) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	return parblock.Graph(e.context(), col, scheme, e.cfg())
}

// Prune implements Engine.
func (e MapReduce) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	if alg == metablocking.WNP || alg == metablocking.CNP {
		return parblock.PruneNodeCentric(e.context(), g, alg, opts, e.cfg())
	}
	return g.Prune(alg, opts), nil
}

// Ingest implements Engine.
func (e MapReduce) Ingest(st *State) error { return st.refresh(e) }

// Evict implements Engine.
func (e MapReduce) Evict(st *State) error { return st.refresh(e) }
