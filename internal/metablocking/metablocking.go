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
	"slices"
	"unsafe"

	"repro/internal/blocking"
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
// bit; the shared engine (internal/pipeline) runs the same build on
// more workers.
func Build(col *blocking.Collection, scheme Scheme) *Graph {
	g := BuildUnweighted(col, 1)
	g.reweigh(scheme)
	return g
}

// Reweigh recomputes edge weights under a different scheme without
// rebuilding the graph.
func (g *Graph) Reweigh(scheme Scheme) { g.reweigh(scheme) }

func (g *Graph) reweigh(scheme Scheme) {
	f := g.nodeFactors(scheme)
	for i := range g.Edges {
		e := &g.Edges[i]
		cbs := float64(g.common[i])
		ba, bb := float64(g.blocks[e.A]), float64(g.blocks[e.B])
		switch scheme {
		case CBS:
			e.Weight = cbs
		case ECBS:
			e.Weight = cbs * f[e.A] * f[e.B]
		case JS:
			e.Weight = cbs / (ba + bb - cbs)
		case EJS:
			js := cbs / (ba + bb - cbs)
			e.Weight = js * f[e.A] * f[e.B]
		case ARCS:
			e.Weight = g.arcs[i]
		}
	}
}

// nodeFactors returns the per-node log factor of scheme — ECBS's
// safeLog(|B|/|Bv|), EJS's safeLog(|E|/deg v) — or nil for a scheme
// without one. An edge multiplies in both endpoints' factors; reading
// them from this table evaluates the same expression on the same
// operands as computing them per edge, so the weights do not change by
// a bit, at one logarithm per node instead of two per edge. Nodes
// without blocks (ECBS) or edges (EJS) keep 0: no edge reads them.
func (g *Graph) nodeFactors(scheme Scheme) []float64 {
	var num float64
	var den []int32
	switch scheme {
	case ECBS:
		num, den = float64(g.nBlock), g.blocks
	case EJS:
		num, den = float64(len(g.Edges)), g.degree
	default:
		return nil
	}
	f := make([]float64, len(den))
	for v, d := range den {
		if d > 0 {
			f[v] = safeLog(num / float64(d))
		}
	}
	return f
}

// safeLog guards against log of ratios ≤ 1 collapsing evidence to
// zero or negative: weights must stay non-negative.
func safeLog(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}

// NumEdges returns the number of distinct candidate comparisons.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Footprint returns the graph's approximate heap footprint in bytes:
// the edge records plus the per-edge and per-node weighting evidence
// it retains for Reweigh. An observability gauge (the server's /status
// memory panel), not an accounting truth — it counts the backing arrays
// the graph owns, not allocator overhead.
func (g *Graph) Footprint() int {
	const edgeSize = int(unsafe.Sizeof(Edge{}))
	return len(g.Edges)*edgeSize + len(g.common)*8 + len(g.arcs)*8 +
		len(g.blocks)*4 + len(g.degree)*4
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
// budget-driven matcher would consume them in. Every algorithm collects
// its kept set in the graph's (A, B) order, and sortEdges places it by
// weight in linear time, stably, which yields exactly that order.
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

// sortEdges orders es, given in ascending (A, B) order, by descending
// weight under cmp.Compare: an LSD radix sort over descKey in 11-bit
// digits that skips every digit all keys share. Each pass carries the
// keys with the edge positions, so it reads sequentially; the edges
// themselves move once, gathered into place at the end. Radix passes
// are stable, so equal weights keep their (A, B) order and the result
// is the total order "weight descending, then (A, B) ascending" — what
// a comparator sort over all three fields produces — in O(n) time.
// Scratch is 48 bytes per edge (keys and positions double-buffered,
// the gathered copy), freed on return.
func sortEdges(es []Edge) {
	n := len(es)
	if n < 2 {
		return
	}
	const bits, digits = 11, 6
	const mask = 1<<bits - 1
	keys := make([]uint64, n)
	pos := make([]int32, n)
	count := make([][1 << bits]int32, digits)
	for i := range es {
		k := descKey(es[i].Weight)
		keys[i] = k
		pos[i] = int32(i)
		for d := range count {
			count[d][(k>>(bits*d))&mask]++
		}
	}
	keys2 := make([]uint64, n)
	pos2 := make([]int32, n)
	for d := range count {
		c := &count[d]
		shift := bits * d
		if c[(keys[0]>>shift)&mask] == int32(n) {
			continue // every key has this digit: the pass would move nothing
		}
		sum := int32(0)
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for i, k := range keys {
			b := (k >> shift) & mask
			j := c[b]
			c[b]++
			keys2[j] = k
			pos2[j] = pos[i]
		}
		keys, keys2 = keys2, keys
		pos, pos2 = pos2, pos
	}
	out := make([]Edge, n)
	for j, i := range pos {
		out[j] = es[i]
	}
	copy(es, out)
}

// descKey maps a weight to a key whose ascending order is the weight's
// descending cmp.Compare order: −0 and +0 share a key, and NaN, which
// cmp.Compare ranks below every number, takes the largest.
func descKey(w float64) uint64 {
	if w != w {
		return math.MaxUint64
	}
	b := math.Float64bits(w)
	if b == 1<<63 {
		b = 0 // −0
	}
	if b>>63 == 0 {
		b |= 1 << 63 // non-negative: above every negative
	} else {
		b = ^b // negative: larger magnitude sorts lower
	}
	return ^b
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

// pruneCEP keeps the K heaviest edges. Sorting a copy of the graph
// under (weight, then earlier (A, B) first) — a strict total order over
// distinct pairs — finds the K-th edge, and a second pass keeps every
// edge that ranks at or above it, in the graph's (A, B) order.
func (g *Graph) pruneCEP(opts PruneOptions) []Edge {
	k := opts.K
	if k <= 0 {
		k = opts.Assignments / 2
	}
	if k <= 0 || k >= len(g.Edges) {
		return slices.Clone(g.Edges)
	}
	less := func(a, b Edge) bool {
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		// Deterministic tie-break: later (A,B) ranks lower.
		if a.A != b.A {
			return a.A > b.A
		}
		return a.B > b.B
	}
	ranked := slices.Clone(g.Edges)
	slices.SortFunc(ranked, func(a, b Edge) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		}
		return 0
	})
	cut := ranked[k-1]
	kept := make([]Edge, 0, k)
	for _, e := range g.Edges {
		if !less(e, cut) {
			kept = append(kept, e)
		}
	}
	return kept
}

// Per-endpoint retention verdicts of the node-centric algorithms, one
// bit per endpoint of each edge.
const (
	keptByA uint8 = 1 << iota
	keptByB
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
			flags[i] |= keptByA
		}
		if e.Weight >= sum[e.B] {
			flags[i] |= keptByB
		}
	}
}

// resolveK returns CNP's effective per-node budget under opts —
// opts.KPerNode when pinned, else the paper's BC-derived default
// ceil(assignments / live nodes).
func (g *Graph) resolveK(opts PruneOptions) int {
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
	g.cnpFlags(g.resolveK(opts), flags)
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
				flags[ei] |= keptByA
			} else {
				flags[ei] |= keptByB
			}
		}
	}
}

func (g *Graph) collect(flags []uint8, reciprocal bool) []Edge {
	both := keptByA | keptByB
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
