package metablocking

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/blocking"
	"repro/internal/parmeta"
)

// chunksPerWorker oversubscribes id chunks relative to workers so the
// dynamic schedule stays balanced when per-id work is skewed (clean–
// clean graphs file every edge under an id of the first KB) and a
// worker's scratch, one chunk's rows, stays a small share of the graph.
const chunksPerWorker = 16

// Build constructs the blocking graph of col weighed under scheme with
// the given number of workers (≤ 1 runs on the calling goroutine); the
// graph is identical, weights by bits, for any worker count.
//
// The graph is the self-join of the (description, block) posting
// relation, grouped by pair; the kernel evaluates that join one smaller
// endpoint at a time and weighs each edge as it emits it. The id space
// is cut into contiguous chunks of about equal kernel work (chunkIDs),
// claimed dynamically by workers with an accumulator each; a chunk's
// rows are copied out exact-size from its worker's scratch as one
// segment of the graph, so the build allocates the graph once plus
// about a chunk per worker. EJS's degree factors need every degree and
// |E|: one pass over the rows multiplies them in at the end.
func Build(col *blocking.Collection, scheme Scheme, workers int) *Graph {
	return build(col, scheme, workers, 0)
}

// build is Build with an explicit chunk budget (kernel work per chunk;
// ≤ 0 derives it from the total work and the worker count).
func build(col *blocking.Collection, scheme Scheme, workers, budget int) *Graph {
	workers = max(workers, 1)
	k := newKernel(col, scheme, workers)
	n := col.Source.Len()
	work := make([]int, n)
	total := 0
	for id := range work {
		work[id] = k.work(id)
		total += work[id]
	}
	if budget <= 0 {
		budget = total/(workers*chunksPerWorker) + 1
	}
	ranges := chunkIDs(work, budget)
	g := &Graph{NumNodes: n, nLive: col.Source.NumAlive(), segs: make([]segment, len(ranges))}
	free := make(chan *accumulator, workers)
	for range min(workers, len(ranges)) {
		free <- k.newAccumulator()
	}
	parmeta.ForEach(len(ranges), workers, func(i int) {
		acc := <-free
		g.segs[i] = k.run(acc, ranges[i].Lo, ranges[i].Hi)
		free <- acc
	})
	for i := range g.segs {
		g.segs[i].base = g.nEdge
		g.nEdge += len(g.segs[i].nbr)
	}
	if scheme == EJS {
		f := logFactors(float64(g.nEdge), g.degrees())
		for r := range g.rows() {
			for j, b := range r.nbr {
				r.w[j] = r.w[j] * f[r.a] * f[b]
			}
		}
	}
	return g
}

// chunkIDs cuts [0, len(work)) into contiguous id ranges each carrying
// at most budget work (a single id above the budget gets a range of its
// own).
func chunkIDs(work []int, budget int) []parmeta.Range {
	var out []parmeta.Range
	n := len(work)
	lo, load := 0, 0
	for id, w := range work {
		if id > lo && load+w > budget {
			out = append(out, parmeta.Range{Lo: lo, Hi: id})
			lo, load = id, 0
		}
		load += w
	}
	if lo < n {
		out = append(out, parmeta.Range{Lo: lo, Hi: n})
	}
	return out
}

// kernel builds the blocking graph one description at a time. For
// description a it walks a's blocks in ascending block index, adds
// every co-member c > a (cross-KB only in clean–clean ER) into a dense
// per-worker accumulator and a bitset of touched ids, then emits a's
// edges in ascending c, each weighed from its evidence, walking the
// bitset's touched 64-id words (only those are sorted), and resets only
// the slots it touched. Two consequences make the build exact for any
// chunking:
//
//   - each edge's ARCS sum adds its blocks in ascending block order,
//     the block-order fold of the reference definition, so float
//     weights are reproducible bit for bit;
//   - edges come out in canonical (A, B) order, so disjoint id ranges
//     concatenate in id order with no hash table and no global sort.
//
// A kernel is read-only once built: goroutines may run disjoint id
// ranges concurrently, each with its own accumulator.
type kernel struct {
	col        *blocking.Collection
	scheme     Scheme
	start, csr []int32   // id → its block indices, ascending (Collection.EntityCSR)
	inv        []float64 // block → 1/||b||; 0 for a block inducing no comparison
	f          []float64 // ECBS's per-node log factor
}

// newKernel indexes col for the kernel, sharding the entity→block
// index and the per-block comparison counts over workers.
func newKernel(col *blocking.Collection, scheme Scheme, workers int) *kernel {
	k := &kernel{col: col, scheme: scheme, inv: make([]float64, len(col.Blocks))}
	k.start, k.csr = col.EntityCSR(workers)
	shards := parmeta.Ranges(len(col.Blocks), workers)
	parmeta.ForEach(len(shards), workers, func(s int) {
		for bi := shards[s].Lo; bi < shards[s].Hi; bi++ {
			if c := col.Blocks[bi].Comparisons(col.Source, col.CleanClean); c > 0 {
				k.inv[bi] = 1 / float64(c)
			}
		}
	})
	if scheme == ECBS {
		blocks := make([]int32, col.Source.Len())
		for id := range blocks {
			blocks[id] = k.start[id+1] - k.start[id]
		}
		k.f = logFactors(float64(len(col.Blocks)), blocks)
	}
	return k
}

// work bounds the kernel's cost for id: Σ|b| over id's blocks, the
// co-members run may visit. Chunks are cut by it.
func (k *kernel) work(id int) int {
	w := 0
	for _, bi := range k.csr[k.start[id]:k.start[id+1]] {
		w += len(k.col.Blocks[bi].Entities)
	}
	return w
}

// pageSize is the number of edges a page of kernel scratch holds.
const pageSize = 1 << 12

// page is 48 KiB of a worker's row scratch.
type page struct {
	nbr [pageSize]int32
	w   [pageSize]float64
}

// accumulator is one worker's dense scratch: per-node common-block
// counts, ARCS sums (ARCS only), the bitset of nodes touched since the
// last emit with the indexes of its non-zero words, and the n edges of
// the chunk being run, in pages the worker's next chunk reuses.
type accumulator struct {
	common []int32
	arcs   []float64
	mark   []uint64
	words  []int32
	pages  []*page
	n      int
}

// newAccumulator returns zeroed scratch sized to the kernel's nodes.
func (k *kernel) newAccumulator() *accumulator {
	n := k.col.Source.Len()
	acc := &accumulator{common: make([]int32, n), mark: make([]uint64, (n+63)/64)}
	if k.scheme == ARCS {
		acc.arcs = make([]float64, n)
	}
	return acc
}

// run folds the edges owned by ids [lo, hi) into a segment, copied
// exact-size from acc's pages. acc must be zeroed, and is left zeroed.
func (k *kernel) run(acc *accumulator, lo, hi int) segment {
	s := segment{lo: lo, start: make([]int32, hi-lo+1)}
	src, cleanClean := k.col.Source, k.col.CleanClean
	acc.n = 0
	for a := lo; a < hi; a++ {
		for _, bi := range k.csr[k.start[a]:k.start[a+1]] {
			w := k.inv[bi]
			if w == 0 {
				continue
			}
			ents := k.col.Blocks[bi].Entities
			for _, c := range ents[sort.SearchInts(ents, a)+1:] {
				if cleanClean && !src.CrossKB(a, c) {
					continue
				}
				if acc.common[c] == 0 {
					if acc.mark[c>>6] == 0 {
						acc.words = append(acc.words, int32(c>>6))
					}
					acc.mark[c>>6] |= 1 << (c & 63)
				}
				acc.common[c]++
				if acc.arcs != nil {
					acc.arcs[c] += w
				}
			}
		}
		slices.Sort(acc.words)
		for _, x := range acc.words {
			m := acc.mark[x]
			acc.mark[x] = 0
			for ; m != 0; m &= m - 1 {
				k.emit(acc, a, x<<6|int32(bits.TrailingZeros64(m)))
			}
		}
		s.start[a-lo+1] = int32(acc.n)
		acc.words = acc.words[:0]
	}
	s.nbr, s.weight = make([]int32, acc.n), make([]float64, acc.n)
	for i := 0; i < acc.n; i += pageSize {
		p := acc.pages[i/pageSize]
		copy(s.nbr[i:], p.nbr[:])
		copy(s.weight[i:], p.w[:])
	}
	return s
}

// emit appends edge (a, c) to acc's pages, weighed from acc's slots for
// c, and zeroes those slots. The weight is the scheme's formula on the
// same operands, in the same order, as its definition; EJS's is only the
// Jaccard coefficient, to which Build multiplies in the degree factors.
func (k *kernel) emit(acc *accumulator, a int, c int32) {
	cbs := float64(acc.common[c])
	acc.common[c] = 0
	w := cbs
	switch k.scheme {
	case ECBS:
		w = cbs * k.f[a] * k.f[c]
	case JS, EJS:
		ba, bb := float64(k.start[a+1]-k.start[a]), float64(k.start[c+1]-k.start[c])
		w = cbs / (ba + bb - cbs)
	case ARCS:
		w, acc.arcs[c] = acc.arcs[c], 0
	}
	p := acc.n / pageSize
	if p == len(acc.pages) {
		acc.pages = append(acc.pages, new(page))
	}
	acc.pages[p].nbr[acc.n%pageSize], acc.pages[p].w[acc.n%pageSize] = c, w
	acc.n++
}
