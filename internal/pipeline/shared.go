package pipeline

import (
	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// Shared is the front-end engine: the reference implementations in
// internal/blocking and internal/metablocking plus the two parallel
// kernels that measurably beat them. Token blocking tokenizes the
// collection on Workers goroutines (kb.Collection.WarmTokens) before
// the reference index build reads the warmed cache, and the graph
// build runs the entity-centric kernel, which weighs each edge as it
// emits it, over Workers id chunks (metablocking.Build).
// Purging, filtering and pruning are the reference itself: sharded
// copies of them saved nothing measurable on two cores.
//
// Workers ≤ 1 runs both kernels inline on the calling goroutine, so
// the zero value is the single-threaded reference. Every stage is
// bit-identical for any worker count — same blocks in the same order,
// same float weights — which the differential tests in this package
// and in internal/parmeta assert against the packages' own functions.
type Shared struct {
	// Workers is the parallelism (≤ 1 = one worker).
	Workers int
}

// Sequential is the one-worker engine, Shared's zero value. It is kept
// as a name because the benchmark of record times pipeline.Run on
// Sequential{} as its single-threaded baseline.
type Sequential = Shared

// Name implements Engine.
func (Shared) Name() string { return "shared" }

// TokenBlocking implements Engine: parallel tokenization, then the
// reference index build over the warmed token cache.
func (e Shared) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	src.WarmTokens(opts, e.Workers)
	return blocking.TokenBlocking(src, opts), nil
}

// Purge implements Engine.
func (Shared) Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error) {
	return col.Purge(maxSize), nil
}

// Filter implements Engine.
func (Shared) Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error) {
	return col.Filter(ratio), nil
}

// Build implements Engine: the graph kernel over Workers id chunks.
func (e Shared) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	return metablocking.Build(col, scheme, e.Workers), nil
}

// Prune implements Engine.
func (Shared) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	return g.Prune(alg, opts), nil
}

// Ingest implements Engine.
func (e Shared) Ingest(st *State) error { return st.pass(e) }

// Evict implements Engine.
func (e Shared) Evict(st *State) error { return st.pass(e) }
