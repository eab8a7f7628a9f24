package metablocking

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blocking"
	"repro/internal/parmeta"
)

// chunksPerWorker oversubscribes id chunks relative to workers so the
// dynamic schedule stays balanced when per-id work is skewed (clean–
// clean graphs file every edge under an id of the first KB).
const chunksPerWorker = 8

// BuildUnweighted constructs the blocking graph's edges and evidence
// over col with the given number of workers (≤ 1 runs on the calling
// goroutine), leaving every weight zero: call Reweigh afterwards. The
// graph is identical for any worker count.
//
// The graph is the self-join of the (description, block) posting
// relation, grouped by pair; the kernel evaluates that join one smaller
// endpoint at a time (see kernel). With more than one worker the id
// space is cut into contiguous chunks of about equal kernel work
// (chunkIDs); workers claim chunks dynamically, each with its own
// accumulator, and the chunks' records are written once into
// exact-size graph arrays.
func BuildUnweighted(col *blocking.Collection, workers int) *Graph {
	return buildUnweighted(col, workers, 0)
}

// buildUnweighted is BuildUnweighted with an explicit chunk budget
// (kernel work per chunk; ≤ 0 derives it from the total work and the
// worker count).
func buildUnweighted(col *blocking.Collection, workers, budget int) *Graph {
	workers = max(workers, 1)
	k := newKernel(col, workers)
	n := col.Source.Len()
	if workers == 1 {
		return k.graph([]chunk{k.run(k.newAccumulator(), 0, n)}, 1)
	}
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
	chunks := make([]chunk, len(ranges))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(ranges)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := k.newAccumulator()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ranges) {
					return
				}
				chunks[i] = k.run(acc, ranges[i].Lo, ranges[i].Hi)
			}
		}()
	}
	wg.Wait()
	return k.graph(chunks, workers)
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
// per-worker accumulator, then emits a's edges in ascending c and
// resets only the slots it touched. Two consequences make the build
// exact for any chunking:
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
	start, csr []int32   // id → its block indices, ascending (Collection.EntityCSR)
	inv        []float64 // block → 1/||b||; 0 for a block inducing no comparison
}

// newKernel indexes col for the kernel, sharding the entity→block
// index and the per-block comparison counts over workers.
func newKernel(col *blocking.Collection, workers int) *kernel {
	k := &kernel{col: col, inv: make([]float64, len(col.Blocks))}
	k.start, k.csr = col.EntityCSR(workers)
	shards := parmeta.Ranges(len(col.Blocks), workers)
	parmeta.ForEach(len(shards), workers, func(s int) {
		for bi := shards[s].Lo; bi < shards[s].Hi; bi++ {
			if c := col.Blocks[bi].Comparisons(col.Source, col.CleanClean); c > 0 {
				k.inv[bi] = 1 / float64(c)
			}
		}
	})
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

// accumulator is one worker's dense scratch: per-node common-block
// counts and ARCS sums, plus the nodes touched since the last emit.
type accumulator struct {
	common  []int32
	arcs    []float64
	touched []int32
}

// newAccumulator returns zeroed scratch sized to the kernel's nodes.
func (k *kernel) newAccumulator() *accumulator {
	n := k.col.Source.Len()
	return &accumulator{common: make([]int32, n), arcs: make([]float64, n)}
}

// edgeRec is one edge's evidence, filed under its smaller endpoint.
type edgeRec struct {
	b      int32
	common int32
	arcs   float64
}

// chunk holds the edges of one id range [lo, lo+len(counts)): counts[i]
// is how many edges id lo+i owns as the smaller endpoint, and recs
// lists them id by id, each id's in ascending B.
type chunk struct {
	lo     int
	counts []int32
	recs   []edgeRec
}

// run folds the edges owned by ids [lo, hi) into a chunk. acc must be
// zeroed, and is left zeroed.
func (k *kernel) run(acc *accumulator, lo, hi int) chunk {
	ch := chunk{lo: lo, counts: make([]int32, hi-lo)}
	src, cleanClean := k.col.Source, k.col.CleanClean
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
					acc.touched = append(acc.touched, int32(c))
				}
				acc.common[c]++
				acc.arcs[c] += w
			}
		}
		slices.Sort(acc.touched)
		for _, c := range acc.touched {
			ch.recs = append(ch.recs, edgeRec{b: c, common: acc.common[c], arcs: acc.arcs[c]})
			acc.common[c], acc.arcs[c] = 0, 0
		}
		ch.counts[a-lo] = int32(len(acc.touched))
		acc.touched = acc.touched[:0]
	}
	return ch
}

// graph assembles chunks that tile [0, NumNodes) in ascending id order
// into an unweighted graph: each chunk's records are written once, in
// parallel over chunks, into exact-size edge and evidence arrays.
func (k *kernel) graph(chunks []chunk, workers int) *Graph {
	n := k.col.Source.Len()
	g := &Graph{NumNodes: n, nBlock: len(k.col.Blocks), nLive: k.col.Source.NumAlive()}
	g.blocks = make([]int32, n)
	for id := range g.blocks {
		g.blocks[id] = k.start[id+1] - k.start[id]
	}
	offsets := make([]int, len(chunks))
	total := 0
	for c := range chunks {
		offsets[c] = total
		total += len(chunks[c].recs)
	}
	g.Edges = make([]Edge, total)
	g.common = make([]int, total)
	g.arcs = make([]float64, total)
	parmeta.ForEach(len(chunks), workers, func(c int) {
		ch := &chunks[c]
		i, o := 0, offsets[c]
		for off, cnt := range ch.counts {
			for end := i + int(cnt); i < end; i++ {
				r := ch.recs[i]
				g.Edges[o+i] = Edge{A: ch.lo + off, B: int(r.b)}
				g.common[o+i] = int(r.common)
				g.arcs[o+i] = r.arcs
			}
		}
	})
	g.degree = make([]int32, n)
	for _, e := range g.Edges {
		g.degree[e.A]++
		g.degree[e.B]++
	}
	return g
}
