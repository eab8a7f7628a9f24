// Package metablocking restructures a block collection into its
// blocking graph and prunes it, eliminating the repeated and
// low-evidence comparisons that token blocking inevitably produces.
//
// Nodes are description ids; an edge connects every distinct candidate
// pair (each pair once, however many blocks it co-occurs in). Edges are
// weighted by co-occurrence evidence under one of five schemes (CBS,
// ECBS, JS, EJS, ARCS) and pruned by one of four algorithms:
//
//	WEP — weight edge pruning: keep edges above the global mean weight.
//	CEP — cardinality edge pruning: keep the globally top-K edges.
//	WNP — weight node pruning: keep edges above a node-local threshold.
//	CNP — cardinality node pruning: keep each node's top-k edges.
//
// The node-centric schemes retain an edge if either endpoint retains
// it (the "redefined" variants of Papadakis et al.); Reciprocal
// switches them to requiring both endpoints.
package metablocking

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"repro/internal/blocking"
	"repro/internal/container"
)

// Scheme selects the edge-weighting function.
type Scheme int

const (
	// CBS weighs an edge by its number of common blocks.
	CBS Scheme = iota
	// ECBS is CBS discounted by how many blocks each endpoint occupies:
	// CBS·log(|B|/|Ba|)·log(|B|/|Bb|).
	ECBS
	// JS is the Jaccard coefficient of the endpoints' block sets.
	JS
	// EJS is JS boosted by endpoint degrees:
	// JS·log(|E|/deg(a))·log(|E|/deg(b)).
	EJS
	// ARCS sums the reciprocal comparison cardinality of common blocks:
	// Σ 1/||b||; co-occurrence in small blocks is strong evidence.
	ARCS
)

// String returns the scheme's conventional acronym.
func (s Scheme) String() string {
	switch s {
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	case ARCS:
		return "ARCS"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes lists all weighting schemes, for sweeps.
func Schemes() []Scheme { return []Scheme{CBS, ECBS, JS, EJS, ARCS} }

// Edge is one weighted candidate comparison (A < B).
type Edge struct {
	A, B   int
	Weight float64
}

// Graph is the blocking graph of a block collection.
type Graph struct {
	// Edges holds every distinct candidate pair, sorted by (A, B).
	Edges []Edge
	// NumNodes is the size of the underlying description collection.
	NumNodes int

	common []int     // common-block count per edge
	arcs   []float64 // Σ 1/||b|| per edge
	blocks []int32   // blocks-per-node |Bv|
	degree []int32   // distinct neighbors per node
	nBlock int       // total number of blocks
	nLive  int       // live (non-tombstoned) source descriptions

	// Set by Release: the arrays are gone, the two gauges are cached.
	released bool
	relEdges int
	relFoot  int
}

// LiveNodes returns how many of the graph's nodes are live source
// descriptions. NumNodes keeps counting every allocated id — tombstoned
// ids stay valid array indexes — but averages that mean "per
// description" (CNP's default per-node budget) must divide by the live
// count, or departed descriptions would dilute them. Equal to NumNodes
// until something is evicted.
func (g *Graph) LiveNodes() int {
	if g.nLive > 0 || g.NumNodes == 0 {
		return g.nLive
	}
	return g.NumNodes
}

// Build constructs the blocking graph and computes edge weights under
// the given scheme: BuildUnweighted on one worker, then Reweigh. Each
// edge's evidence is summed over its blocks in ascending block order,
// so the weights equal the block-order fold of the definition bit for
// bit; internal/parmeta runs the same build over more workers and
// shards the reweighing.
func Build(col *blocking.Collection, scheme Scheme) *Graph {
	g := BuildUnweighted(col, 1)
	g.reweigh(scheme)
	return g
}

// Reweigh recomputes edge weights under a different scheme without
// rebuilding the graph.
func (g *Graph) Reweigh(scheme Scheme) { g.reweigh(scheme) }

// ReweighRange recomputes the weights of edges [lo, hi) under scheme.
// Each edge's weight reads only that edge's statistics and immutable
// per-node aggregates, so disjoint ranges may be reweighed
// concurrently — the shared-memory parallel engine (internal/parmeta)
// shards Reweigh with it, producing weights bit-identical to the
// sequential pass.
func (g *Graph) ReweighRange(scheme Scheme, lo, hi int) { g.reweighRange(scheme, lo, hi) }

func (g *Graph) reweigh(scheme Scheme) { g.reweighRange(scheme, 0, len(g.Edges)) }

func (g *Graph) reweighRange(scheme Scheme, lo, hi int) {
	nEdges := float64(len(g.Edges))
	for i := lo; i < hi; i++ {
		e := &g.Edges[i]
		cbs := float64(g.common[i])
		ba, bb := float64(g.blocks[e.A]), float64(g.blocks[e.B])
		switch scheme {
		case CBS:
			e.Weight = cbs
		case ECBS:
			e.Weight = cbs * safeLog(float64(g.nBlock)/ba) * safeLog(float64(g.nBlock)/bb)
		case JS:
			e.Weight = cbs / (ba + bb - cbs)
		case EJS:
			js := cbs / (ba + bb - cbs)
			e.Weight = js * safeLog(nEdges/float64(g.degree[e.A])) * safeLog(nEdges/float64(g.degree[e.B]))
		case ARCS:
			e.Weight = g.arcs[i]
		}
	}
}

// safeLog guards against log of ratios ≤ 1 collapsing evidence to
// zero or negative: weights must stay non-negative.
func safeLog(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}

// NumEdges returns the number of distinct candidate comparisons,
// served from the cached count once the graph is released.
func (g *Graph) NumEdges() int {
	if g.released {
		return g.relEdges
	}
	return len(g.Edges)
}

// Footprint returns the graph's approximate heap footprint in bytes:
// the edge records plus the per-edge and per-node weighting evidence
// it retains for Reweigh. An observability gauge (the server's /status
// memory panel), not an accounting truth — it counts the backing arrays
// the graph owns, not allocator overhead.
func (g *Graph) Footprint() int {
	if g.released {
		return g.relFoot
	}
	const edgeSize = int(unsafe.Sizeof(Edge{}))
	return len(g.Edges)*edgeSize + len(g.common)*8 + len(g.arcs)*8 +
		len(g.blocks)*4 + len(g.degree)*4
}

// Release drops the graph's arrays once its pass is over — matching and
// serving read the retained edges, never the graph, and the next pass
// builds its own — keeping NumEdges and Footprint answerable from
// cached values. A released graph must not be reweighed or pruned.
// Idempotent.
func (g *Graph) Release() {
	if g.released {
		return
	}
	g.relEdges, g.relFoot = len(g.Edges), g.Footprint()
	g.released = true
	g.Edges, g.common, g.arcs, g.blocks, g.degree = nil, nil, nil, nil, nil
}

// Pruning selects the pruning algorithm.
type Pruning int

const (
	// WEP keeps edges whose weight is at least the global mean.
	WEP Pruning = iota
	// CEP keeps the K globally heaviest edges, K = Σ|b|/2 by default.
	CEP
	// WNP keeps edges at or above the mean weight of either endpoint's
	// neighborhood.
	WNP
	// CNP keeps edges in the top-k of either endpoint, k = avg blocks
	// per entity.
	CNP
)

// String returns the pruning algorithm's acronym.
func (p Pruning) String() string {
	switch p {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case CNP:
		return "CNP"
	default:
		return fmt.Sprintf("Pruning(%d)", int(p))
	}
}

// Prunings lists all pruning algorithms, for sweeps.
func Prunings() []Pruning { return []Pruning{WEP, CEP, WNP, CNP} }

// PruneOptions tunes pruning.
type PruneOptions struct {
	// K overrides CEP's edge budget (0 = Σ block assignments / 2).
	K int
	// KPerNode overrides CNP's per-node budget (0 = ⌈assignments/|V|⌉).
	KPerNode int
	// Reciprocal requires both endpoints to retain an edge in WNP/CNP
	// instead of either.
	Reciprocal bool
	// Assignments is Σ|b| of the source blocks, used for default
	// budgets. Required when K or KPerNode are 0 and pruning is
	// cardinality-based.
	Assignments int
}

// Prune returns the retained edges under the chosen algorithm, sorted
// by descending weight (ties by (A,B) ascending) — the order a
// budget-driven matcher would consume them in.
func (g *Graph) Prune(alg Pruning, opts PruneOptions) []Edge {
	var kept []Edge
	switch alg {
	case WEP:
		kept = g.pruneWEP()
	case CEP:
		kept = g.pruneCEP(opts)
	case WNP:
		kept = g.pruneWNP(opts.Reciprocal)
	case CNP:
		kept = g.pruneCNP(opts)
	}
	sortEdges(kept)
	return kept
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Weight != es[j].Weight {
			return es[i].Weight > es[j].Weight
		}
		if es[i].A != es[j].A {
			return es[i].A < es[j].A
		}
		return es[i].B < es[j].B
	})
}

func (g *Graph) pruneWEP() []Edge {
	if len(g.Edges) == 0 {
		return nil
	}
	sum := 0.0
	for _, e := range g.Edges {
		sum += e.Weight
	}
	mean := sum / float64(len(g.Edges))
	var kept []Edge
	for _, e := range g.Edges {
		if e.Weight >= mean {
			kept = append(kept, e)
		}
	}
	return kept
}

func (g *Graph) pruneCEP(opts PruneOptions) []Edge {
	k := opts.K
	if k <= 0 {
		k = opts.Assignments / 2
	}
	if k <= 0 {
		k = len(g.Edges)
	}
	top := container.NewBoundedTopK(k, func(a, b Edge) bool {
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		// Deterministic tie-break: later (A,B) ranks lower.
		if a.A != b.A {
			return a.A > b.A
		}
		return a.B > b.B
	})
	for _, e := range g.Edges {
		top.Offer(e)
	}
	return top.Drain()
}

// Per-endpoint retention verdicts of the node-centric algorithms, one
// bit per endpoint of each edge. Shared with the parallel engine
// (internal/parmeta), which ORs them in from concurrent node shards.
const (
	KeptByA uint8 = 1 << iota
	KeptByB
)

func (g *Graph) pruneWNP(reciprocal bool) []Edge {
	flags := make([]uint8, len(g.Edges))
	g.wnpFlags(flags)
	return g.collect(flags, reciprocal)
}

// wnpFlags fills per-endpoint retention bits for weight node pruning
// without materializing any adjacency. Each node's incident weights are
// accumulated in ascending edge-index order — exactly the order the
// materialized neighborhood walk summed them in — so the means, and
// therefore every verdict, are bit-identical to the reference.
func (g *Graph) wnpFlags(flags []uint8) {
	sum := make([]float64, g.NumNodes)
	cnt := make([]int32, g.NumNodes)
	for _, e := range g.Edges {
		sum[e.A] += e.Weight
		cnt[e.A]++
		sum[e.B] += e.Weight
		cnt[e.B]++
	}
	for v := range sum {
		if cnt[v] > 0 {
			sum[v] /= float64(cnt[v]) // now the neighborhood mean
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Weight >= sum[e.A] {
			flags[i] |= KeptByA
		}
		if e.Weight >= sum[e.B] {
			flags[i] |= KeptByB
		}
	}
}

// ResolveK returns CNP's effective per-node budget under opts —
// opts.KPerNode when pinned, else the paper's BC-derived default
// ceil(assignments / live nodes). Exported for the parallel pruner
// (internal/parmeta), which must resolve the same budget.
func (g *Graph) ResolveK(opts PruneOptions) int {
	k := opts.KPerNode
	if live := g.LiveNodes(); k <= 0 && live > 0 {
		k = (opts.Assignments + live - 1) / live
	}
	if k <= 0 {
		k = 1
	}
	return k
}

func (g *Graph) pruneCNP(opts PruneOptions) []Edge {
	flags := make([]uint8, len(g.Edges))
	g.cnpFlags(g.ResolveK(opts), flags)
	return g.collect(flags, opts.Reciprocal)
}

// cnpFlags fills per-endpoint retention bits for cardinality node
// pruning using a slab of bounded min-heaps — one row per node, sized
// min(k, deg(v)) — instead of materialized neighborhoods plus a heap
// allocation per node. The comparator (weight, then higher edge index
// loses ties) is a strict total order, so the per-node top-k *set* is
// unique and the verdicts match the reference bit for bit.
func (g *Graph) cnpFlags(k int, flags []uint8) {
	start := make([]int32, g.NumNodes+1)
	pos := int32(0)
	for v := 0; v < g.NumNodes; v++ {
		start[v] = pos
		c := int32(g.degree[v])
		if c > int32(k) {
			c = int32(k)
		}
		pos += c
	}
	start[g.NumNodes] = pos
	heap := make([]int32, pos)
	hlen := make([]int32, g.NumNodes)

	// less reports a's edge ranking strictly below b's.
	less := func(a, b int32) bool {
		ea, eb := &g.Edges[a], &g.Edges[b]
		if ea.Weight != eb.Weight {
			return ea.Weight < eb.Weight
		}
		return a > b
	}
	offer := func(v int, ei int32) {
		h := heap[start[v]:start[v+1]]
		n := hlen[v]
		if int(n) < len(h) {
			// Push and sift up.
			h[n] = ei
			i := n
			for i > 0 {
				p := (i - 1) / 2
				if !less(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			hlen[v] = n + 1
			return
		}
		if n == 0 || !less(h[0], ei) {
			return // not better than the current minimum
		}
		// Replace the root and sift down.
		h[0] = ei
		i := int32(0)
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && less(h[r], h[l]) {
				m = r
			}
			if !less(h[m], h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		offer(e.A, int32(i))
		offer(e.B, int32(i))
	}
	for v := 0; v < g.NumNodes; v++ {
		h := heap[start[v] : start[v]+hlen[v]]
		for _, ei := range h {
			if g.Edges[ei].A == v {
				flags[ei] |= KeptByA
			} else {
				flags[ei] |= KeptByB
			}
		}
	}
}

func (g *Graph) collect(flags []uint8, reciprocal bool) []Edge {
	both := KeptByA | KeptByB
	keep := func(f uint8) bool {
		if reciprocal {
			return f == both
		}
		return f != 0
	}
	n := 0
	for _, f := range flags {
		if keep(f) {
			n++
		}
	}
	kept := make([]Edge, 0, n)
	for i, f := range flags {
		if keep(f) {
			kept = append(kept, g.Edges[i])
		}
	}
	return kept
}
