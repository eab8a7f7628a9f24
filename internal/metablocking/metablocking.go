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
	"iter"
	"math"
	"slices"
	"sort"
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

// Graph is the blocking graph of a block collection, weighed once by
// Build. Every edge is filed in the row of its smaller endpoint A: a
// row lists its neighbours B in ascending order beside the edges'
// weights, and rows come in ascending A, so edges are in canonical
// (A, B) order. The rows are the graph kernel's chunks as emitted, one
// segment per id range: 12 bytes per edge (an int32 neighbour and a
// float64 weight) plus an int32 offset per node. No co-occurrence
// evidence is kept, so a graph cannot be re-weighed.
type Graph struct {
	// NumNodes is the size of the underlying description collection.
	NumNodes int

	segs  []segment
	nEdge int // edges over all segments
	nLive int // live (non-tombstoned) source descriptions
}

// segment holds the rows of ids [lo, lo+len(start)-1): row a is
// nbr[start[a-lo]:start[a-lo+1]], with the edges' weights at the same
// positions of weight. base is the (A, B)-order index of the segment's
// first edge.
type segment struct {
	lo, base   int
	start, nbr []int32
	weight     []float64
}

// row is one node's row: the edges (a, nbr[j]) of weight w[j], whose
// (A, B)-order indexes run from first.
type row struct {
	a, first int
	nbr      []int32
	w        []float64
}

// rows yields every node's row in ascending a, empty rows included.
func (g *Graph) rows() iter.Seq[row] {
	return func(yield func(row) bool) {
		for si := range g.segs {
			s := &g.segs[si]
			for x := range len(s.start) - 1 {
				lo, hi := s.start[x], s.start[x+1]
				if !yield(row{a: s.lo + x, first: s.base + int(lo), nbr: s.nbr[lo:hi], w: s.weight[lo:hi]}) {
					return
				}
			}
		}
	}
}

// Edges yields every edge of the graph in (A, B) order.
func (g *Graph) Edges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for r := range g.rows() {
			for j, b := range r.nbr {
				if !yield(Edge{A: r.a, B: int(b), Weight: r.w[j]}) {
					return
				}
			}
		}
	}
}

// Lookup returns the (A, B)-order index and the weight of the edge
// between a and b (a < b), found by a binary search of a's row, or
// ok = false when the graph has no such edge.
func (g *Graph) Lookup(a, b int) (index int, weight float64, ok bool) {
	si := sort.Search(len(g.segs), func(i int) bool { return g.segs[i].lo > a }) - 1
	if si < 0 || a >= g.segs[si].lo+len(g.segs[si].start)-1 {
		return 0, 0, false
	}
	s := &g.segs[si]
	lo, hi := s.start[a-s.lo], s.start[a-s.lo+1]
	j, found := slices.BinarySearch(s.nbr[lo:hi], int32(b))
	if !found {
		return 0, 0, false
	}
	return s.base + int(lo) + j, s.weight[int(lo)+j], true
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

// degrees returns every node's number of distinct neighbours.
func (g *Graph) degrees() []int32 {
	deg := make([]int32, g.NumNodes)
	for r := range g.rows() {
		deg[r.a] += int32(len(r.nbr))
		for _, b := range r.nbr {
			deg[b]++
		}
	}
	return deg
}

// logFactors returns the per-node log factor safeLog(num/den[v]) of
// ECBS (num = |B|, den = |Bv|) or EJS (num = |E|, den = deg v). An edge
// multiplies in both endpoints' factors; reading them from this table
// evaluates the same expression on the same operands as computing them
// per edge, at one logarithm per node instead of two per edge. Nodes
// with den 0 keep 0: no edge reads them.
func logFactors(num float64, den []int32) []float64 {
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
func (g *Graph) NumEdges() int { return g.nEdge }

// Footprint returns the graph's heap footprint in bytes: 12 per edge
// (neighbour and weight) plus the row offsets, 4 per node. An
// observability gauge (the server's /status memory panel), not an
// accounting truth — it counts the lengths of the arrays the graph
// owns, not their append slack or allocator overhead.
func (g *Graph) Footprint() int {
	b := 0
	for _, s := range g.segs {
		b += len(s.start)*4 + len(s.nbr)*4 + len(s.weight)*8
	}
	return b
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
// budget-driven matcher would consume them in. Each algorithm writes a
// verdict byte per edge, walking the rows in (A, B) order (CEP after a
// radix select of its K-th edge), and place writes the kept edges
// straight into that order.
func (g *Graph) Prune(alg Pruning, opts PruneOptions) []Edge {
	var flags []uint8
	switch alg {
	case WEP:
		flags = g.wepFlags()
	case CEP:
		flags = g.cepFlags(opts)
	case WNP:
		flags = g.wnpFlags()
	case CNP:
		flags = g.cnpFlags(g.resolveK(opts))
	default:
		return nil
	}
	return g.place(flags, opts.Reciprocal)
}

// place returns the edges flags keep (both endpoints' bits when
// reciprocal, either otherwise) in the total order "weight descending
// under cmp.Compare, then (A, B) ascending", in O(n) time. It lists the
// kept edges' descKeys in (A, B) order and radix-sorts them with their
// positions (stable LSD passes in 11-bit digits, skipping every digit
// all keys share); inverting the positions gives each kept edge its
// slot, and one walk of the rows drops it there. Scratch is 24 bytes
// per kept edge, freed on return.
func (g *Graph) place(flags []uint8, reciprocal bool) []Edge {
	least := uint8(1) // flags ≥ least: either bit, or both when reciprocal
	if reciprocal {
		least = keptByA | keptByB
	}
	n := 0
	for _, f := range flags {
		if f >= least {
			n++
		}
	}
	out := make([]Edge, n)
	keys, pos := make([]uint64, n), make([]int32, n)
	i := 0
	for si := range g.segs {
		s := &g.segs[si]
		for e, f := range flags[s.base : s.base+len(s.weight)] {
			if f >= least {
				keys[i] = descKey(s.weight[e])
				i++
			}
		}
	}
	const bits, digits = 11, 6
	const mask = 1<<bits - 1
	count := make([][1 << bits]int32, digits)
	for i, k := range keys {
		pos[i] = int32(i)
		for d := range count {
			count[d][(k>>(bits*d))&mask]++
		}
	}
	keys2, pos2 := make([]uint64, n), make([]int32, n)
	for d := range count {
		c := &count[d]
		shift := bits * d
		if n < 2 || c[(keys[0]>>shift)&mask] == int32(n) {
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
	at := pos2 // kept edge i's slot in the result
	for j, i := range pos {
		at[i] = int32(j)
	}
	i = 0
	for r := range g.rows() {
		for j, b := range r.nbr {
			if flags[r.first+j] >= least {
				out[at[i]] = Edge{A: r.a, B: int(b), Weight: r.w[j]}
				i++
			}
		}
	}
	return out
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

// Per-endpoint retention verdicts of the pruning algorithms, one bit
// per endpoint of each edge; an edge-centric verdict sets both.
const (
	keptByA uint8 = 1 << iota
	keptByB
)

// wepFlags marks the edges whose weight is at least the mean weight,
// summed in (A, B) order.
func (g *Graph) wepFlags() []uint8 {
	flags := make([]uint8, g.nEdge)
	sum := 0.0
	for r := range g.rows() {
		for _, w := range r.w {
			sum += w
		}
	}
	mean := sum / float64(g.nEdge)
	for r := range g.rows() {
		for j, w := range r.w {
			if w >= mean {
				flags[r.first+j] = keptByA | keptByB
			}
		}
	}
	return flags
}

// cepFlags marks the K heaviest edges, the first K of the total order
// "weight descending, then (A, B) ascending": a radix select, one
// 11-bit digit of descKey per walk from the top, finds the K-th
// smallest key (the cut) and how many keys lie below it; the edges
// below the cut are kept, and the first K − below at it in (A, B) order.
func (g *Graph) cepFlags(opts PruneOptions) []uint8 {
	flags := make([]uint8, g.nEdge)
	k := opts.K
	if k <= 0 {
		k = opts.Assignments / 2
	}
	if k <= 0 || k > g.nEdge {
		k = g.nEdge
	}
	const bits = 11
	var count [1 << bits]int
	cut, below := uint64(0), 0
	for shift := 55; shift >= 0; shift -= bits {
		clear(count[:])
		for _, s := range g.segs {
			for _, w := range s.weight {
				if key := descKey(w); key>>(shift+bits) == cut>>(shift+bits) {
					count[key>>shift&(1<<bits-1)]++
				}
			}
		}
		for d, c := range count {
			if below+c >= k {
				cut |= uint64(d) << shift
				break
			}
			below += c
		}
	}
	ties := k - below
	for _, s := range g.segs {
		for e, w := range s.weight {
			if key := descKey(w); key < cut || key == cut && ties > 0 {
				if key == cut {
					ties--
				}
				flags[s.base+e] = keptByA | keptByB
			}
		}
	}
	return flags
}

// wnpFlags fills per-endpoint retention bits for weight node pruning
// without materializing any adjacency. Walking the rows in (A, B)
// order adds each node's incident weights in ascending neighbour order,
// so every node's mean, and therefore every verdict, is that of its
// neighbourhood summed in that order.
func (g *Graph) wnpFlags() []uint8 {
	sum := make([]float64, g.NumNodes)
	cnt := make([]int32, g.NumNodes)
	for r := range g.rows() {
		for j, b := range r.nbr {
			w := r.w[j]
			sum[r.a] += w
			cnt[r.a]++
			sum[b] += w
			cnt[b]++
		}
	}
	for v := range sum {
		if cnt[v] > 0 {
			sum[v] /= float64(cnt[v]) // now the neighbourhood mean
		}
	}
	flags := make([]uint8, g.nEdge)
	for r := range g.rows() {
		for j, b := range r.nbr {
			w, f := r.w[j], uint8(0)
			if w >= sum[r.a] {
				f |= keptByA
			}
			if w >= sum[b] {
				f |= keptByB
			}
			flags[r.first+j] = f
		}
	}
	return flags
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

// slot is one entry of cnpFlags' heaps: an edge's weight, its (A, B)
// order index and the bit of the endpoint whose heap holds it.
type slot struct {
	w    float64
	i    int32
	side uint8
}

// cnpFlags fills per-endpoint retention bits for cardinality node
// pruning using a slab of bounded min-heaps — one row per node, sized
// min(k, deg(v)) — fed in (A, B) order. The comparator (weight, then
// the higher edge index loses ties) is a strict total order, so each
// node's top-k set is unique.
func (g *Graph) cnpFlags(k int) []uint8 {
	deg := g.degrees()
	start := make([]int32, g.NumNodes+1)
	for v, d := range deg {
		start[v+1] = start[v] + min(d, int32(k))
	}
	heap := make([]slot, start[g.NumNodes])
	hlen := make([]int32, g.NumNodes)

	// less reports x ranking strictly below y.
	less := func(x, y slot) bool {
		if x.w != y.w {
			return x.w < y.w
		}
		return x.i > y.i
	}
	offer := func(v int, e slot) {
		h := heap[start[v]:start[v+1]]
		n := hlen[v]
		if int(n) < len(h) {
			// Push and sift up.
			h[n] = e
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
		if n == 0 || !less(h[0], e) {
			return // not better than the current minimum
		}
		// Replace the root and sift down.
		h[0] = e
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
	for r := range g.rows() {
		for j, b := range r.nbr {
			i := int32(r.first + j)
			offer(r.a, slot{w: r.w[j], i: i, side: keptByA})
			offer(int(b), slot{w: r.w[j], i: i, side: keptByB})
		}
	}
	flags := make([]uint8, g.nEdge)
	for _, e := range heap {
		flags[e.i] |= e.side
	}
	return flags
}
