package pipeline

import (
	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// Sequential is the single-threaded reference engine: it runs the
// canonical implementations in internal/blocking and
// internal/metablocking unchanged. Every other engine is defined as
// "bit-identical to Sequential".
type Sequential struct{}

// Name implements Engine.
func (Sequential) Name() string { return "sequential" }

// TokenBlocking implements Engine.
func (Sequential) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	return blocking.TokenBlocking(src, opts), nil
}

// Purge implements Engine.
func (Sequential) Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error) {
	return col.Purge(maxSize), nil
}

// Filter implements Engine.
func (Sequential) Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error) {
	return col.Filter(ratio), nil
}

// Build implements Engine.
func (Sequential) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	return metablocking.Build(col, scheme), nil
}

// Prune implements Engine.
func (Sequential) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	return g.Prune(alg, opts), nil
}

// Ingest implements Engine.
func (Sequential) Ingest(st *State) error { return st.refresh(Sequential{}) }

// Evict implements Engine.
func (Sequential) Evict(st *State) error { return st.refresh(Sequential{}) }
