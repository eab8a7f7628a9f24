// Package baseline implements the comparison orders Minoan ER's
// progressive scheduler is evaluated against:
//
//   - Random order — the floor every progressive method must beat.
//   - Block order — pairs in the order blocking enumerates them (a
//     non-progressive batch workflow consuming candidates as they come).
//   - Weight order — meta-blocking edges by descending weight with no
//     update phase: "static progressive", the strongest non-iterative
//     order.
//   - Density order — an adaptation of progressive relational ER
//     (Altowim et al., PVLDB 2014) to the blocking world: blocks are
//     scheduled by expected duplicates per comparison (their mean edge
//     weight), maximizing the *quantity* of resolved pairs early; no
//     neighbor evidence, no discovery.
//
// Every baseline runs through Execute, which applies the same matcher,
// the same gate and the same budget unit (decided pairs) but performs
// no update phase — isolating the contribution of Minoan ER's
// scheduling and propagation.
package baseline

import (
	"math/rand"
	"sort"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// RandomOrder returns the pairs in a seed-determined random order.
func RandomOrder(pairs []blocking.Pair, seed int64) []blocking.Pair {
	out := append([]blocking.Pair(nil), pairs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// BlockOrder returns the distinct pairs in block-enumeration order.
func BlockOrder(col *blocking.Collection) []blocking.Pair {
	return col.DistinctPairs()
}

// WeightOrder returns the pruned meta-blocking edges as a pair
// sequence; Prune already sorts by descending weight.
func WeightOrder(edges []metablocking.Edge) []blocking.Pair {
	out := make([]blocking.Pair, len(edges))
	for i, e := range edges {
		out[i] = blocking.MakePair(e.A, e.B)
	}
	return out
}

// DensityOrder schedules whole blocks by expected duplicates per
// comparison — the quantity-benefit strategy of progressive relational
// ER adapted to schema-agnostic blocks. Within a collection, blocks
// are ranked by mean pair weight (each pair's weight looked up in the
// graph); each block's pairs are then emitted in weight order, skipping
// pairs already emitted by an earlier block.
func DensityOrder(col *blocking.Collection, g *metablocking.Graph) []blocking.Pair {
	type weighed struct {
		p    blocking.Pair
		w    float64
		edge int // the pair's index in the graph
	}
	type scored struct {
		idx     int
		density float64
	}
	blocksByDensity := make([]scored, 0, len(col.Blocks))
	pairsOf := make([][]weighed, len(col.Blocks))
	for bi := range col.Blocks {
		b := &col.Blocks[bi]
		var ps []weighed
		total := 0.0
		for x := 0; x < len(b.Entities); x++ {
			for y := x + 1; y < len(b.Entities); y++ {
				p := blocking.MakePair(b.Entities[x], b.Entities[y])
				edge, w, ok := g.Lookup(p.A, p.B)
				if !ok {
					continue
				}
				ps = append(ps, weighed{p: p, w: w, edge: edge})
				total += w
			}
		}
		if len(ps) == 0 {
			continue
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].w != ps[j].w {
				return ps[i].w > ps[j].w
			}
			if ps[i].p.A != ps[j].p.A {
				return ps[i].p.A < ps[j].p.A
			}
			return ps[i].p.B < ps[j].p.B
		})
		pairsOf[bi] = ps
		blocksByDensity = append(blocksByDensity, scored{idx: bi, density: total / float64(len(ps))})
	}
	sort.SliceStable(blocksByDensity, func(i, j int) bool {
		if blocksByDensity[i].density != blocksByDensity[j].density {
			return blocksByDensity[i].density > blocksByDensity[j].density
		}
		return blocksByDensity[i].idx < blocksByDensity[j].idx
	})
	seen := make([]bool, g.NumEdges())
	var out []blocking.Pair
	for _, s := range blocksByDensity {
		for _, e := range pairsOf[s.idx] {
			if seen[e.edge] {
				continue
			}
			seen[e.edge] = true
			out = append(out, e.p)
		}
	}
	return out
}

// Execute runs the matcher over the ordered pairs under a budget,
// without any update phase: no priority boosts, no discovery. When
// useNeighborEvidence is true the matcher still *sees* the evolving
// clusters when scoring (a fair middle ground); when false each pair
// is judged on value similarity alone. Like the progressive resolver,
// it skips a pair whose value similarity can never match
// (match.Matcher.CanMatch) undecided: the pair has no Step and spends
// no budget, so every method's budget and recall curve count decided
// pairs.
func Execute(m *match.Matcher, order []blocking.Pair, useNeighborEvidence bool, budget int) *core.Result {
	cl := match.NewClustersFor(m.Collection())
	res := &core.Result{Clusters: cl}
	for _, p := range order {
		if budget > 0 && res.Comparisons >= budget {
			break
		}
		if cl.Same(p.A, p.B) {
			continue // transitively resolved; skip like the scheduler does
		}
		v := m.ValueSim(p.A, p.B)
		if !m.CanMatch(v) {
			continue // can never match; the scheduler never queues it
		}
		res.Comparisons++
		state := cl
		if !useNeighborEvidence {
			state = nil
		}
		score, matched := m.DecideValue(p.A, p.B, v, state)
		step := core.Step{A: p.A, B: p.B, Score: score, Matched: matched}
		if matched {
			res.Matches++
			step.Merged = cl.Merge(p.A, p.B)
		}
		res.Trace = append(res.Trace, step)
	}
	return res
}
