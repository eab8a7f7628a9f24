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

// referencePrune is Prune by definition over the reference's own edge
// list, sharing no code with Graph: WEP keeps the edges at or above the
// mean weight; CEP sorts the whole graph and keeps its first K edges;
// WNP and CNP judge every node's neighbourhood, listed in ascending
// neighbour order — WNP keeps the edges at or above the neighbourhood's
// mean weight, summed in that order, CNP the first k of the
// neighbourhood sorted by the scheduling order — and keep an edge if
// either endpoint does, or both under Reciprocal. The kept set is then
// sorted by comparison.
func referencePrune(ref *refGraph, alg Pruning, opts PruneOptions) []Edge {
	var kept []Edge
	switch alg {
	case WEP:
		if len(ref.edges) == 0 {
			return nil
		}
		sum := 0.0
		for _, e := range ref.edges {
			sum += e.Weight
		}
		mean := sum / float64(len(ref.edges))
		for _, e := range ref.edges {
			if e.Weight >= mean {
				kept = append(kept, e)
			}
		}
	case CEP:
		kept = slices.Clone(ref.edges)
		comparatorSort(kept)
		k := opts.K
		if k <= 0 {
			k = opts.Assignments / 2
		}
		if k > 0 && k < len(kept) {
			kept = kept[:k]
		}
		return kept
	case WNP, CNP:
		live := ref.live
		if live == 0 {
			live = ref.n
		}
		k := opts.KPerNode
		if k <= 0 && live > 0 {
			k = (opts.Assignments + live - 1) / live
		}
		k = max(k, 1)
		nbhd := make([][]Edge, ref.n)
		for _, e := range ref.edges {
			nbhd[e.A] = append(nbhd[e.A], e)
			nbhd[e.B] = append(nbhd[e.B], e)
		}
		votes := make(map[[2]int]int)
		for v, es := range nbhd {
			other := func(e Edge) int { return e.A + e.B - v }
			slices.SortFunc(es, func(x, y Edge) int { return cmp.Compare(other(x), other(y)) })
			var chosen []Edge
			if alg == WNP {
				sum := 0.0
				for _, e := range es {
					sum += e.Weight
				}
				mean := sum / float64(len(es))
				for _, e := range es {
					if e.Weight >= mean {
						chosen = append(chosen, e)
					}
				}
			} else {
				chosen = slices.Clone(es)
				comparatorSort(chosen)
				chosen = chosen[:min(k, len(chosen))]
			}
			for _, e := range chosen {
				votes[[2]int{e.A, e.B}]++
			}
		}
		need := 1
		if opts.Reciprocal {
			need = 2
		}
		for _, e := range ref.edges {
			if votes[[2]int{e.A, e.B}] >= need {
				kept = append(kept, e)
			}
		}
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

// TestPruneOrderMatchesComparatorSort pins Prune — its verdicts, its
// linear-time placement and CEP's prefix — to the by-definition
// reference over the reference graph's own edges, by bits, for every
// scheme × pruning × reciprocal on the worlds of
// TestBuildMatchesBlockOrderReference, on graphs built on 1, 2 and 4
// workers, at the default budgets and at a CEP budget that lands
// inside a run of equal weights.
func TestPruneOrderMatchesComparatorSort(t *testing.T) {
	for _, tc := range buildWorlds(t) {
		for _, scheme := range Schemes() {
			ref := referenceGraph(tc.col, scheme)
			for _, workers := range []int{1, 2, 4} {
				g := Build(tc.col, scheme, workers)
				opts := PruneOptions{Assignments: tc.col.Assignments()}
				for _, alg := range Prunings() {
					for _, reciprocal := range []bool{false, true} {
						opts.Reciprocal = reciprocal
						label := fmt.Sprintf("%s/%v/workers=%d/%v/reciprocal=%v", tc.name, scheme, workers, alg, reciprocal)
						sameEdges(t, label, g.Prune(alg, opts), referencePrune(ref, alg, opts))
					}
				}
				if k, ok := tieCut(ref.edges); ok {
					opts := PruneOptions{K: k}
					label := fmt.Sprintf("%s/%v/workers=%d/CEP/K=%d", tc.name, scheme, workers, k)
					sameEdges(t, label, g.Prune(CEP, opts), referencePrune(ref, CEP, opts))
				}
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

// graphOf stores edges, given in (A, B) order, as a one-segment Graph
// over n nodes.
func graphOf(n int, es []Edge) *Graph {
	s := segment{start: make([]int32, n+1)}
	for _, e := range es {
		s.nbr = append(s.nbr, int32(e.B))
		s.weight = append(s.weight, e.Weight)
		s.start[e.A+1]++
	}
	for v := range n {
		s.start[v+1] += s.start[v]
	}
	return &Graph{NumNodes: n, segs: []segment{s}, nEdge: len(es)}
}

// syntheticGraph is a tie-heavy graph over n nodes: every pair with
// probability p, weights drawn from a handful of values that include
// both −0.0 and +0.0, in the canonical (A, B) order.
func syntheticGraph(rng *rand.Rand, n int, p float64) *refGraph {
	weights := []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2}
	g := &refGraph{n: n, live: n}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() >= p {
				continue
			}
			g.edges = append(g.edges, Edge{A: a, B: b, Weight: weights[rng.Intn(len(weights))]})
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
		ref := syntheticGraph(rng, 5+rng.Intn(40), 0.3)
		g := graphOf(ref.n, ref.edges)
		for _, alg := range Prunings() {
			for _, reciprocal := range []bool{false, true} {
				opts := PruneOptions{Reciprocal: reciprocal, Assignments: 3 * len(ref.edges), KPerNode: 1 + rng.Intn(4)}
				label := fmt.Sprintf("trial %d/%v/reciprocal=%v", trial, alg, reciprocal)
				sameEdges(t, label, g.Prune(alg, opts), referencePrune(ref, alg, opts))
			}
		}
		for k := 1; k <= len(ref.edges)+1; k++ {
			opts := PruneOptions{K: k}
			sameEdges(t, fmt.Sprintf("trial %d/CEP/K=%d", trial, k), g.Prune(CEP, opts), referencePrune(ref, CEP, opts))
		}
	}
}

// TestPlaceKey checks the placement itself on inputs Prune never
// produces — negative weights, infinities, NaN, signed zeros and
// subnormals — over random verdicts, either and both endpoints: the
// kept edges must equal the comparator sort of the edges the verdicts
// keep, by bits.
func TestPlaceKey(t *testing.T) {
	values := []float64{math.Inf(-1), -3, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0.25, 1, 1e300, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		es := make([]Edge, n)
		flags := make([]uint8, n)
		for i := range es {
			es[i] = Edge{A: i / 7, B: i + 1, Weight: values[rng.Intn(len(values))]}
			flags[i] = uint8(rng.Intn(4))
		}
		g := graphOf(n+1, es)
		for _, reciprocal := range []bool{false, true} {
			var want []Edge
			for i, e := range es {
				if flags[i] == keptByA|keptByB || !reciprocal && flags[i] != 0 {
					want = append(want, e)
				}
			}
			comparatorSort(want)
			sameEdges(t, fmt.Sprintf("trial %d/reciprocal=%v", trial, reciprocal), g.place(flags, reciprocal), want)
		}
	}
}
