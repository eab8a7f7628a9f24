package metablocking

import (
	"slices"
	"sort"

	"repro/internal/blocking"
	"repro/internal/mapreduce"
)

// Kernel builds the blocking graph one description at a time. The
// graph is the self-join of the (description, block) posting relation,
// grouped by pair; the kernel evaluates that join one smaller endpoint
// at a time. For description a it walks a's blocks in ascending block
// index, adds every co-member c > a (cross-KB only in clean–clean ER)
// into a dense per-worker accumulator, then emits a's edges in
// ascending c and resets only the slots it touched. Two consequences
// make every builder built on it exact:
//
//   - each edge's ARCS sum adds its blocks in ascending block order,
//     the block-order fold of the reference definition, so float
//     weights are reproducible bit for bit;
//   - edges come out in canonical (A, B) order, so disjoint id ranges
//     concatenate in id order with no hash table and no global sort.
//
// A Kernel is read-only once built: goroutines may Run disjoint id
// ranges concurrently, each with its own Accumulator.
type Kernel struct {
	col        *blocking.Collection
	start, csr []int32   // id → its block indices, ascending (Collection.EntityCSR)
	inv        []float64 // block → 1/||b||; 0 for a block inducing no comparison
}

// NewKernel indexes col for the kernel, sharding the entity→block
// index and the per-block comparison counts over workers.
func NewKernel(col *blocking.Collection, workers int) *Kernel {
	k := &Kernel{col: col, inv: make([]float64, len(col.Blocks))}
	k.start, k.csr = col.EntityCSR(workers)
	shards := mapreduce.Ranges(len(col.Blocks), workers)
	mapreduce.ForEach(len(shards), workers, func(s int) {
		for bi := shards[s].Lo; bi < shards[s].Hi; bi++ {
			if c := col.Blocks[bi].Comparisons(col.Source, col.CleanClean); c > 0 {
				k.inv[bi] = 1 / float64(c)
			}
		}
	})
	return k
}

// Work bounds the kernel's cost for id: Σ|b| over id's blocks, the
// co-members Run may visit. Parallel builders cut id chunks by it.
func (k *Kernel) Work(id int) int {
	w := 0
	for _, bi := range k.csr[k.start[id]:k.start[id+1]] {
		w += len(k.col.Blocks[bi].Entities)
	}
	return w
}

// Accumulator is one worker's dense scratch: per-node common-block
// counts and ARCS sums, plus the nodes touched since the last emit.
type Accumulator struct {
	common  []int32
	arcs    []float64
	touched []int32
}

// NewAccumulator returns zeroed scratch sized to the kernel's nodes.
func (k *Kernel) NewAccumulator() *Accumulator {
	n := k.col.Source.Len()
	return &Accumulator{common: make([]int32, n), arcs: make([]float64, n)}
}

// edgeRec is one edge's evidence, filed under its smaller endpoint.
type edgeRec struct {
	b      int32
	common int32
	arcs   float64
}

// Chunk holds the edges of one id range [lo, lo+len(counts)): counts[i]
// is how many edges id lo+i owns as the smaller endpoint, and recs
// lists them id by id, each id's in ascending B.
type Chunk struct {
	lo     int
	counts []int32
	recs   []edgeRec
}

// Run folds the edges owned by ids [lo, hi) into a Chunk. acc must be
// zeroed, and is left zeroed.
func (k *Kernel) Run(acc *Accumulator, lo, hi int) Chunk {
	ch := Chunk{lo: lo, counts: make([]int32, hi-lo)}
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

// Graph assembles chunks that tile [0, NumNodes) in ascending id order
// into an unweighted graph: each chunk's records are written once, in
// parallel over chunks, into exact-size edge and evidence arrays. Call
// Reweigh (or ReweighRange over shards) afterwards.
func (k *Kernel) Graph(chunks []Chunk, workers int) *Graph {
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
	mapreduce.ForEach(len(chunks), workers, func(c int) {
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
