package metablocking

import (
	"sort"

	"repro/internal/blocking"
)

// NewGraphShell returns an empty Graph over col's descriptions with the
// per-node block counts precomputed. External builders (the MapReduce
// realization in internal/parblock) add aggregated edge statistics with
// AddEdgeStat and then call Finish — producing a graph identical to
// what Build computes sequentially.
func NewGraphShell(col *blocking.Collection) *Graph {
	g := &Graph{NumNodes: col.Source.Len(), nBlock: col.NumBlocks(), nLive: col.Source.NumAlive()}
	g.blocks = make([]int32, g.NumNodes)
	for i := range col.Blocks {
		for _, id := range col.Blocks[i].Entities {
			g.blocks[id]++
		}
	}
	return g
}

// AddEdgeStat records one distinct pair's aggregated evidence: its
// common-block count (CBS) and its Σ 1/||b|| (ARCS numerator).
func (g *Graph) AddEdgeStat(a, b, cbs int, arcs float64) {
	if a > b {
		a, b = b, a
	}
	g.Edges = append(g.Edges, Edge{A: a, B: b})
	g.common = append(g.common, cbs)
	g.arcs = append(g.arcs, arcs)
}

// Finish sorts the edges canonically, computes node degrees, and
// applies the weighting scheme. Call exactly once after the last
// AddEdgeStat.
func (g *Graph) Finish(scheme Scheme) {
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ex, ey := g.Edges[order[x]], g.Edges[order[y]]
		if ex.A != ey.A {
			return ex.A < ey.A
		}
		return ex.B < ey.B
	})
	edges := make([]Edge, len(g.Edges))
	common := make([]int, len(g.common))
	arcs := make([]float64, len(g.arcs))
	for i, o := range order {
		edges[i] = g.Edges[o]
		common[i] = g.common[o]
		arcs[i] = g.arcs[o]
	}
	g.Edges, g.common, g.arcs = edges, common, arcs
	g.degree = make([]int32, g.NumNodes)
	for _, e := range g.Edges {
		g.degree[e.A]++
		g.degree[e.B]++
	}
	g.reweigh(scheme)
}

// SortEdges orders edges by descending weight, ties by ascending
// (A, B) — the consumption order of a budget-driven matcher.
func SortEdges(es []Edge) { sortEdges(es) }
