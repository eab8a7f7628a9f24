// Package parmeta is the shared-memory parallel meta-blocking engine:
// the multicore realization of blocking-graph construction, weighting,
// and pruning that internal/metablocking implements sequentially and
// internal/parblock simulates as MapReduce jobs.
//
// The engine shards work over contiguous block, edge, and node ranges
// and merges per-shard state lock-free: every partition of the edge
// space is owned by exactly one goroutine, so no mutex guards the
// accumulation maps, and floating-point evidence is summed in the same
// global block order as the sequential builder. Results are therefore
// bit-identical to internal/metablocking for every weighting scheme
// and pruning algorithm — the differential tests assert it — while
// Build and Prune scale with cores.
//
// Three properties make the sharding exact rather than merely
// approximately equivalent:
//
//  1. Block shards are contiguous and merged in shard order, so each
//     edge's CBS/ARCS accumulators see their per-block contributions
//     in exactly the sequential order (float addition is not
//     associative, so order is part of the contract).
//  2. The edge-space partition function is monotone in the smaller
//     endpoint, so sorted partitions concatenate directly into the
//     canonical (A, B) edge order with no global sort.
//  3. Node-centric pruning builds a deterministic CSR adjacency whose
//     per-node edge lists are index-ascending — the same order the
//     sequential engine appends them — so per-neighborhood float sums
//     and top-k selections replay exactly.
package parmeta

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blocking"
	"repro/internal/container"
	"repro/internal/mapreduce"
	"repro/internal/metablocking"
)

// partsPerWorker oversubscribes edge-space partitions relative to
// workers so the dynamic merge schedule stays balanced when the
// entity-range partition is skewed (clean–clean graphs put every
// smaller endpoint in the first KB's id range).
const partsPerWorker = 4

// Workers resolves a worker-count option: values ≤ 0 mean one worker
// per available CPU (GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// occurrence is one pair co-occurrence emitted by the map phase:
// endpoints (a < b) and the block's reciprocal comparison count.
type occurrence struct {
	a, b int32
	inv  float64
}

// record is one distinct edge's aggregated evidence.
type record struct {
	a, b   int32
	common int32
	arcs   float64
}

// recSegBits sizes the segments of the per-partition record pools:
// fixed arrays that grow without copying, so accumulating a partition's
// records never pays append-doubling churn (the largest allocation term
// of the parallel build before pools).
const recSegBits = 12

// recPool is a segmented arena of records addressed by dense int32
// handles; records never move as the pool grows.
type recPool struct {
	segs [][]record
	n    int32
}

func (p *recPool) alloc(a, b int32) int32 {
	i := p.n
	s := int(i) >> recSegBits
	if s == len(p.segs) {
		p.segs = append(p.segs, make([]record, 1<<recSegBits))
	}
	p.segs[s][i&(1<<recSegBits-1)] = record{a: a, b: b}
	p.n++
	return i
}

func (p *recPool) at(i int32) *record {
	return &p.segs[i>>recSegBits][i&(1<<recSegBits-1)]
}

// buildChunkComparisons bounds how many pair occurrences a single
// map→merge round may buffer. Build streams the block range through
// rounds of at most this many comparisons, folding each round into
// persistent per-partition edge records, so peak memory is
// O(distinct edges + chunk) instead of O(comparisons) — the difference
// between the two is the whole point of meta-blocking, and on >10M-edge
// workloads the occurrence buffer used to dwarf the graph itself. A
// var, not a const, so tests can force many tiny rounds.
var buildChunkComparisons = 1 << 16

// chunkByComparisons cuts [0, len(cmps)) into contiguous block ranges
// each inducing at most budget comparisons (single blocks above the
// budget get a round of their own).
func chunkByComparisons(cmps []int, budget int) []mapreduce.Range {
	var out []mapreduce.Range
	lo, load := 0, 0
	for bi, c := range cmps {
		if bi > lo && load+c > budget {
			out = append(out, mapreduce.Range{Lo: lo, Hi: bi})
			lo, load = bi, 0
		}
		load += c
	}
	if lo < len(cmps) {
		out = append(out, mapreduce.Range{Lo: lo, Hi: len(cmps)})
	}
	return out
}

// Build constructs the blocking graph concurrently and computes edge
// weights under the given scheme. The result is identical — including
// float weights, bit for bit — to metablocking.Build for any worker
// count; workers ≤ 0 means GOMAXPROCS and 1 falls through to the
// sequential builder.
//
// The block range is processed in rounds (see buildChunkComparisons):
// each round's map phase deals its occurrences to entity-range
// partitions, and the merge phase folds them — shards in ascending
// order, occurrences one at a time — into per-partition flat records.
// Rounds and shards are both contiguous ascending block ranges, so
// every edge's float evidence accumulates in exactly the global block
// order of the sequential oracle.
func Build(col *blocking.Collection, scheme metablocking.Scheme, workers int) *metablocking.Graph {
	workers = Workers(workers)
	if workers == 1 || len(col.Blocks) == 0 {
		return metablocking.Build(col, scheme)
	}
	numNodes := col.Source.Len()
	nParts := workers * partsPerWorker

	// Per-block comparison counts, computed once in parallel: they
	// drive both the round planning and the map loops.
	cmps := make([]int, len(col.Blocks))
	var cwg sync.WaitGroup
	for _, r := range mapreduce.Ranges(len(col.Blocks), workers) {
		cwg.Add(1)
		go func(r mapreduce.Range) {
			defer cwg.Done()
			for bi := r.Lo; bi < r.Hi; bi++ {
				cmps[bi] = col.Blocks[bi].Comparisons(col.Source, col.CleanClean)
			}
		}(r)
	}
	cwg.Wait()

	// Persistent per-partition accumulators, and per-(shard, partition)
	// occurrence buffers reused across rounds.
	accIdx := make([]container.PairTable, nParts)
	pools := make([]recPool, nParts)
	emits := make([][][]occurrence, workers)
	for s := range emits {
		emits[s] = make([][]occurrence, nParts)
	}

	for _, round := range chunkByComparisons(cmps, buildChunkComparisons) {
		// Map: contiguous block shards within the round. Each worker
		// walks its blocks in order and deals every pair occurrence to
		// the entity-range partition of the smaller endpoint.
		shards := mapreduce.Ranges(round.Len(), workers)
		var wg sync.WaitGroup
		for s, sr := range shards {
			wg.Add(1)
			go func(s int, r mapreduce.Range) {
				defer wg.Done()
				parts := emits[s]
				for p := range parts {
					parts[p] = parts[p][:0]
				}
				for bi := round.Lo + r.Lo; bi < round.Lo+r.Hi; bi++ {
					if cmps[bi] == 0 {
						continue
					}
					inv := 1 / float64(cmps[bi])
					ents := col.Blocks[bi].Entities
					for x := 0; x < len(ents); x++ {
						for y := x + 1; y < len(ents); y++ {
							a, bb := ents[x], ents[y]
							if col.CleanClean && !col.Source.CrossKB(a, bb) {
								continue
							}
							if a > bb {
								a, bb = bb, a
							}
							p := a * nParts / numNodes
							parts[p] = append(parts[p], occurrence{a: int32(a), b: int32(bb), inv: inv})
						}
					}
				}
			}(s, sr)
		}
		wg.Wait()

		// Merge: each partition is owned by exactly one goroutine
		// (claimed off a shared counter), visiting shards in ascending
		// order so every edge's evidence accumulates in global block
		// order.
		nShards := len(shards)
		forEachPart(nParts, workers, func(p int) {
			idx := &accIdx[p]
			pool := &pools[p]
			for s := 0; s < nShards; s++ {
				for _, o := range emits[s][p] {
					key := uint64(uint32(o.a))<<32 | uint64(uint32(o.b))
					i, ok := idx.Get(key)
					if !ok {
						i = pool.alloc(o.a, o.b)
						idx.Put(key, i)
					}
					r := pool.at(i)
					r.common++
					r.arcs += o.inv
				}
			}
		})
	}

	// Records accumulated in first-occurrence order; sort each partition
	// into canonical (A, B) order once, after the last round — an index
	// permutation per partition, the pooled records never move.
	orders := make([][]int32, nParts)
	forEachPart(nParts, workers, func(p int) {
		pool := &pools[p]
		order := make([]int32, pool.n)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(x, y int) bool {
			rx, ry := pool.at(order[x]), pool.at(order[y])
			if rx.a != ry.a {
				return rx.a < ry.a
			}
			return rx.b < ry.b
		})
		orders[p] = order
	})

	// Assemble: the partition function is monotone in A, so sorted
	// partitions concatenate directly into canonical (A, B) order.
	total := 0
	offsets := make([]int, nParts)
	for p := range pools {
		offsets[p] = total
		total += int(pools[p].n)
	}
	edges := make([]metablocking.Edge, total)
	common := make([]int, total)
	arcs := make([]float64, total)
	forEachPart(nParts, workers, func(p int) {
		o := offsets[p]
		pool := &pools[p]
		for i, h := range orders[p] {
			r := pool.at(h)
			edges[o+i] = metablocking.Edge{A: int(r.a), B: int(r.b)}
			common[o+i] = int(r.common)
			arcs[o+i] = r.arcs
		}
	})

	g := metablocking.NewGraphFromStats(col, edges, common, arcs)
	Reweigh(g, scheme, workers)
	return g
}

// Reweigh recomputes edge weights under a different scheme, sharding
// the edge range across workers. Identical to Graph.Reweigh for any
// worker count.
func Reweigh(g *metablocking.Graph, scheme metablocking.Scheme, workers int) {
	workers = Workers(workers)
	shards := mapreduce.Ranges(len(g.Edges), workers)
	if workers == 1 || len(shards) < 2 {
		g.Reweigh(scheme)
		return
	}
	var wg sync.WaitGroup
	for _, r := range shards {
		wg.Add(1)
		go func(r mapreduce.Range) {
			defer wg.Done()
			g.ReweighRange(scheme, r.Lo, r.Hi)
		}(r)
	}
	wg.Wait()
}

// Prune returns the retained edges under the chosen algorithm, sorted
// by descending weight (ties by (A, B) ascending) — the same contract,
// and the same edges, as Graph.Prune, for any worker count. Multiple
// Prune calls may run concurrently on one graph: pruning only reads
// the graph.
func Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions, workers int) []metablocking.Edge {
	workers = Workers(workers)
	if workers == 1 || len(g.Edges) == 0 {
		return g.Prune(alg, opts)
	}
	var kept []metablocking.Edge
	switch alg {
	case metablocking.WEP:
		kept = pruneWEP(g, workers)
	case metablocking.CEP:
		kept = pruneCEP(g, opts, workers)
	case metablocking.WNP, metablocking.CNP:
		kept = pruneNode(g, alg, opts, workers)
	}
	sortEdgesParallel(kept, workers)
	return kept
}

func pruneWEP(g *metablocking.Graph, workers int) []metablocking.Edge {
	// The mean is summed sequentially in edge order: float addition is
	// not associative, and the threshold must match the sequential
	// engine bit for bit. The filter — the allocation-heavy part — is
	// what shards.
	sum := 0.0
	for _, e := range g.Edges {
		sum += e.Weight
	}
	mean := sum / float64(len(g.Edges))
	return collectShards(g, workers, func(i int) bool {
		return g.Edges[i].Weight >= mean
	})
}

// collectShards gathers the edges satisfying keep into one exact-size
// output slice: a sharded count pass sizes per-shard output ranges, a
// sharded fill pass writes them — no per-shard buffers, no concat copy.
// Shard ranges are contiguous and ascending, so the output order is the
// sequential scan order.
func collectShards(g *metablocking.Graph, workers int, keep func(i int) bool) []metablocking.Edge {
	shards := mapreduce.Ranges(len(g.Edges), workers)
	counts := make([]int, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer wg.Done()
			n := 0
			for i := r.Lo; i < r.Hi; i++ {
				if keep(i) {
					n++
				}
			}
			counts[s] = n
		}(s, r)
	}
	wg.Wait()
	total := 0
	for s, n := range counts {
		counts[s] = total
		total += n
	}
	if total == 0 {
		return nil
	}
	out := make([]metablocking.Edge, total)
	var fwg sync.WaitGroup
	for s, r := range shards {
		fwg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer fwg.Done()
			o := counts[s]
			for i := r.Lo; i < r.Hi; i++ {
				if keep(i) {
					out[o] = g.Edges[i]
					o++
				}
			}
		}(s, r)
	}
	fwg.Wait()
	return out
}

// cepLess ranks edges for cardinality edge pruning: lighter first,
// ties broken so that later (A, B) ranks lower — the sequential
// engine's deterministic tie-break. The order is total (edges are
// distinct pairs), so the global top-k set is unique no matter how the
// candidates are sharded.
func cepLess(a, b metablocking.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if a.A != b.A {
		return a.A > b.A
	}
	return a.B > b.B
}

func pruneCEP(g *metablocking.Graph, opts metablocking.PruneOptions, workers int) []metablocking.Edge {
	k := opts.K
	if k <= 0 {
		k = opts.Assignments / 2
	}
	if k <= 0 {
		k = len(g.Edges)
	}
	shards := mapreduce.Ranges(len(g.Edges), workers)
	winners := make([][]metablocking.Edge, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer wg.Done()
			top := container.NewBoundedTopK(k, cepLess)
			for _, e := range g.Edges[r.Lo:r.Hi] {
				top.Offer(e)
			}
			winners[s] = top.Drain()
		}(s, r)
	}
	wg.Wait()
	// Every member of the global top-k survives its own shard's top-k,
	// so merging the shard winners through one more selection yields
	// exactly the sequential result.
	top := container.NewBoundedTopK(k, cepLess)
	for _, ws := range winners {
		for _, e := range ws {
			top.Offer(e)
		}
	}
	return top.Drain()
}

// pruneNode runs WNP or CNP: the halved incidence structure, per-node
// retention sharded over node ranges with atomic per-endpoint flag
// bits, then a sharded collect.
func pruneNode(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions, workers int) []metablocking.Edge {
	inc := incidence(g, workers)
	kPerNode := 0
	if alg == metablocking.CNP {
		kPerNode = g.ResolveK(opts)
	}
	// Per-edge retention flags. An edge's two endpoints may land in
	// different node shards, each OR-ing its own bit into the same word,
	// hence the atomic Or (a plain |= on shared bytes would race).
	flags := make([]uint32, len(g.Edges))
	var wg sync.WaitGroup
	for _, r := range mapreduce.Ranges(g.NumNodes, workers) {
		wg.Add(1)
		go func(r mapreduce.Range) {
			defer wg.Done()
			for v := r.Lo; v < r.Hi; v++ {
				if inc.deg(v) == 0 {
					continue
				}
				switch alg {
				case metablocking.WNP:
					// Summed in index-ascending order — the sequential
					// neighborhood order — for a bit-identical mean.
					sum := 0.0
					n := 0
					inc.forEach(v, func(ei int32, isA bool) {
						sum += g.Edges[ei].Weight
						n++
					})
					mean := sum / float64(n)
					inc.forEach(v, func(ei int32, isA bool) {
						if g.Edges[ei].Weight >= mean {
							atomic.OrUint32(&flags[ei], endpointBit(isA))
						}
					})
				case metablocking.CNP:
					top := container.NewBoundedTopK(kPerNode, func(a, b int32) bool {
						ea, eb := g.Edges[a], g.Edges[b]
						if ea.Weight != eb.Weight {
							return ea.Weight < eb.Weight
						}
						return a > b
					})
					inc.forEach(v, func(ei int32, isA bool) {
						top.Offer(ei)
					})
					for _, ei := range top.Drain() {
						atomic.OrUint32(&flags[ei], endpointBit(g.Edges[ei].A == v))
					}
				}
			}
		}(r)
	}
	wg.Wait()

	both := uint32(metablocking.KeptByA | metablocking.KeptByB)
	return collectShards(g, workers, func(i int) bool {
		if opts.Reciprocal {
			return flags[i] == both
		}
		return flags[i] != 0
	})
}

func endpointBit(isA bool) uint32 {
	if isA {
		return uint32(metablocking.KeptByA)
	}
	return uint32(metablocking.KeptByB)
}

// incidenceIdx is the halved per-node incidence structure. Edges are
// sorted by (A, B), so each node's A-side incident edges are one
// contiguous run of edge indices — aStart[v]:aStart[v+1] IS the index
// list, no storage needed. Only the B side keeps an explicit CSR
// (bStart, bIdx), E entries instead of the 2E a full adjacency holds:
// the edge list stops being stored twice.
type incidenceIdx struct {
	aStart []int32
	bStart []int32
	bIdx   []int32
}

func (in *incidenceIdx) deg(v int) int {
	return int(in.aStart[v+1]-in.aStart[v]) + int(in.bStart[v+1]-in.bStart[v])
}

// forEach visits v's incident edge indices in ascending order — the
// sequential neighborhood order — merging the implicit A-run with the
// B list (both ascending, never overlapping: an edge's endpoints are
// distinct).
func (in *incidenceIdx) forEach(v int, fn func(ei int32, isA bool)) {
	ai, aEnd := in.aStart[v], in.aStart[v+1]
	bs := in.bIdx[in.bStart[v]:in.bStart[v+1]]
	j := 0
	for ai < aEnd || j < len(bs) {
		if ai < aEnd && (j == len(bs) || ai < bs[j]) {
			fn(ai, true)
			ai++
		} else {
			fn(bs[j], false)
			j++
		}
	}
}

// incidence builds the halved incidence structure. The B-side fill is
// sharded over contiguous edge ranges with disjoint per-node, per-shard
// cursor ranges, so it is lock-free and the layout is identical for any
// worker count; the A side is a prefix sum over the already-sorted edge
// list.
func incidence(g *metablocking.Graph, workers int) *incidenceIdx {
	in := &incidenceIdx{aStart: make([]int32, g.NumNodes+1)}
	for i := range g.Edges {
		in.aStart[g.Edges[i].A+1]++
	}
	for v := 0; v < g.NumNodes; v++ {
		in.aStart[v+1] += in.aStart[v]
	}

	shards := mapreduce.Ranges(len(g.Edges), workers)
	counts := make([][]int32, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer wg.Done()
			c := make([]int32, g.NumNodes)
			for _, e := range g.Edges[r.Lo:r.Hi] {
				c[e.B]++
			}
			counts[s] = c
		}(s, r)
	}
	wg.Wait()

	in.bStart = make([]int32, g.NumNodes+1)
	pos := int32(0)
	for v := 0; v < g.NumNodes; v++ {
		in.bStart[v] = pos
		for s := range counts {
			c := counts[s][v]
			counts[s][v] = pos
			pos += c
		}
	}
	in.bStart[g.NumNodes] = pos

	in.bIdx = make([]int32, pos)
	var fwg sync.WaitGroup
	for s, r := range shards {
		fwg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer fwg.Done()
			cur := counts[s]
			for i := r.Lo; i < r.Hi; i++ {
				e := &g.Edges[i]
				in.bIdx[cur[e.B]] = int32(i)
				cur[e.B]++
			}
		}(s, r)
	}
	fwg.Wait()
	return in
}

// edgeBefore is the retained-edge output order: descending weight,
// ties by ascending (A, B) — total, since edges are distinct pairs.
func edgeBefore(a, b metablocking.Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// sortEdgesParallel sorts es in the retained-edge output order with a
// chunked parallel merge sort. The comparator is total, so the result
// is identical to metablocking.SortEdges for any worker count.
func sortEdgesParallel(es []metablocking.Edge, workers int) {
	if len(es) < 2 {
		return
	}
	spans := mapreduce.Ranges(len(es), workers)
	if workers == 1 || len(spans) < 2 {
		metablocking.SortEdges(es)
		return
	}
	var wg sync.WaitGroup
	for _, r := range spans {
		wg.Add(1)
		go func(r mapreduce.Range) {
			defer wg.Done()
			metablocking.SortEdges(es[r.Lo:r.Hi])
		}(r)
	}
	wg.Wait()

	buf := make([]metablocking.Edge, len(es))
	src, dst := es, buf
	for len(spans) > 1 {
		next := make([]mapreduce.Range, 0, (len(spans)+1)/2)
		var mwg sync.WaitGroup
		for i := 0; i < len(spans); i += 2 {
			if i+1 == len(spans) {
				r := spans[i]
				mwg.Add(1)
				go func(r mapreduce.Range) {
					defer mwg.Done()
					copy(dst[r.Lo:r.Hi], src[r.Lo:r.Hi])
				}(r)
				next = append(next, r)
				break
			}
			a, b := spans[i], spans[i+1]
			mwg.Add(1)
			go func(a, b mapreduce.Range) {
				defer mwg.Done()
				mergeEdges(dst[a.Lo:b.Hi], src[a.Lo:a.Hi], src[b.Lo:b.Hi])
			}(a, b)
			next = append(next, mapreduce.Range{Lo: a.Lo, Hi: b.Hi})
		}
		mwg.Wait()
		spans = next
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

func mergeEdges(dst, a, b []metablocking.Edge) {
	i, j := 0, 0
	for k := range dst {
		switch {
		case i == len(a):
			dst[k] = b[j]
			j++
		case j == len(b):
			dst[k] = a[i]
			i++
		case edgeBefore(b[j], a[i]):
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
		}
	}
}

// forEachPart runs fn(p) for every p in [0, nParts), distributing
// partitions dynamically over workers goroutines.
func forEachPart(nParts, workers int, fn func(p int)) {
	mapreduce.ForEach(nParts, workers, fn)
}

func concat(parts [][]metablocking.Edge) []metablocking.Edge {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]metablocking.Edge, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
