package metablocking

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// comparatorSort is the reference scheduling order: a comparison sort
// by descending weight under cmp.Compare, ties by ascending (A, B).
// Edges are distinct pairs, so the order is total and any sort yields
// the same slice.
func comparatorSort(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
			return c
		}
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
}

// referencePrune is Prune by comparison sorting: CEP sorts the whole
// graph and keeps its first K edges, the other algorithms sort the set
// their retention verdicts keep.
func referencePrune(g *Graph, alg Pruning, opts PruneOptions) []Edge {
	var kept []Edge
	switch alg {
	case WEP:
		kept = g.pruneWEP()
	case CEP:
		kept = slices.Clone(g.Edges)
		comparatorSort(kept)
		k := opts.K
		if k <= 0 {
			k = opts.Assignments / 2
		}
		if k > 0 && k < len(kept) {
			kept = kept[:k]
		}
	case WNP:
		kept = g.pruneWNP(opts.Reciprocal)
	case CNP:
		kept = g.pruneCNP(opts)
	}
	comparatorSort(kept)
	return kept
}

// sameEdges compares two edge lists field by field, weights by bits.
func sameEdges(t *testing.T, label string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		e := got[i]
		if e.A != w.A || e.B != w.B || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, e, w)
		}
	}
}

// TestPruneOrderMatchesComparatorSort pins Prune's linear-time
// placement (and CEP's boundary pass) to the comparison-sort reference, by
// bits, for every scheme × pruning × reciprocal on the worlds of
// TestBuildMatchesBlockOrderReference, at the default budgets and at a
// CEP budget that lands inside a run of equal weights.
func TestPruneOrderMatchesComparatorSort(t *testing.T) {
	for _, tc := range buildWorlds(t) {
		for _, scheme := range Schemes() {
			g := Build(tc.col, scheme)
			opts := PruneOptions{Assignments: tc.col.Assignments()}
			for _, alg := range Prunings() {
				for _, reciprocal := range []bool{false, true} {
					opts.Reciprocal = reciprocal
					label := fmt.Sprintf("%s/%v/%v/reciprocal=%v", tc.name, scheme, alg, reciprocal)
					sameEdges(t, label, g.Prune(alg, opts), referencePrune(g, alg, opts))
				}
			}
			if k, ok := tieCut(g.Edges); ok {
				opts := PruneOptions{K: k}
				label := fmt.Sprintf("%s/%v/CEP/K=%d", tc.name, scheme, k)
				sameEdges(t, label, g.Prune(CEP, opts), referencePrune(g, CEP, opts))
			}
		}
	}
}

// tieCut returns a CEP budget that splits a run of equal weights: one
// more than the number of edges strictly heavier than the most common
// weight shared by at least two edges.
func tieCut(es []Edge) (int, bool) {
	runs := map[float64]int{}
	for _, e := range es {
		runs[e.Weight]++
	}
	best, bestN := 0.0, 1
	for w, n := range runs {
		if n > bestN || n == bestN && w > best {
			best, bestN = w, n
		}
	}
	if bestN < 2 {
		return 0, false
	}
	k := 1
	for _, e := range es {
		if e.Weight > best {
			k++
		}
	}
	return k, true
}

// syntheticGraph is a tie-heavy graph over n nodes: every pair with
// probability p, weights drawn from a handful of values that include
// both −0.0 and +0.0, in the canonical (A, B) order.
func syntheticGraph(rng *rand.Rand, n int, p float64) *Graph {
	weights := []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2}
	g := &Graph{NumNodes: n, degree: make([]int32, n)}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() >= p {
				continue
			}
			g.Edges = append(g.Edges, Edge{A: a, B: b, Weight: weights[rng.Intn(len(weights))]})
			g.degree[a]++
			g.degree[b]++
		}
	}
	return g
}

// TestPruneOrderSyntheticTies drives the same differential over
// synthetic graphs where almost every weight is tied — signed zeros
// included, which cmp.Compare holds equal — and CEP budgets swept
// across every boundary, so most cuts fall inside a tie run.
func TestPruneOrderSyntheticTies(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		g := syntheticGraph(rng, 5+rng.Intn(40), 0.3)
		for _, alg := range Prunings() {
			for _, reciprocal := range []bool{false, true} {
				opts := PruneOptions{Reciprocal: reciprocal, Assignments: 3 * len(g.Edges), KPerNode: 1 + rng.Intn(4)}
				label := fmt.Sprintf("trial %d/%v/reciprocal=%v", trial, alg, reciprocal)
				sameEdges(t, label, g.Prune(alg, opts), referencePrune(g, alg, opts))
			}
		}
		for k := 1; k <= len(g.Edges)+1; k++ {
			opts := PruneOptions{K: k}
			sameEdges(t, fmt.Sprintf("trial %d/CEP/K=%d", trial, k), g.Prune(CEP, opts), referencePrune(g, CEP, opts))
		}
	}
}

// TestSortEdgesKey checks the placement itself on inputs Prune never
// produces — negative weights, infinities, NaN, signed zeros and
// subnormals — given in (A, B) order: the result must equal the
// comparator sort by bits.
func TestSortEdgesKey(t *testing.T) {
	values := []float64{math.Inf(-1), -3, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.25, 1, 1e300, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		es := make([]Edge, n)
		for i := range es {
			es[i] = Edge{A: i / 7, B: i, Weight: values[rng.Intn(len(values))]}
		}
		want := slices.Clone(es)
		comparatorSort(want)
		sortEdges(es)
		sameEdges(t, fmt.Sprintf("trial %d", trial), es, want)
	}
}
