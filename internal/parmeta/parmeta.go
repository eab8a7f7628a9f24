// Package parmeta is the shared-memory parallel meta-blocking engine:
// the multicore realization of blocking-graph construction, weighting,
// and pruning that internal/metablocking implements sequentially and
// internal/parblock simulates as MapReduce jobs.
//
// The engine shards work over contiguous id, edge, and node ranges and
// merges per-shard state lock-free: every output range is owned by
// exactly one goroutine, so nothing is locked, and floating-point
// evidence is summed in the same order as the sequential builder.
// Results are therefore bit-identical to internal/metablocking for
// every weighting scheme and pruning algorithm — the differential tests
// assert it — while Build and Prune scale with cores.
//
// Three properties make the sharding exact rather than merely
// approximately equivalent:
//
//  1. Id-range chunks own their edges. Graph construction is
//     metablocking.BuildUnweighted, whose entity-centric kernel files
//     every edge under its smaller endpoint, so each edge is
//     accumulated by exactly one chunk, in one worker's private
//     accumulator.
//  2. Rows are ascending block indices. The kernel walks each id's
//     entity→block row in ascending order, so every edge's CBS/ARCS
//     evidence adds its blocks in exactly the sequential order (float
//     addition is not associative, so order is part of the contract).
//  3. Chunks concatenate in id order. Each chunk emits its edges in
//     canonical (A, B) order, so the chunks, written at prefix-sum
//     offsets, are the canonical edge list with no global sort.
//
// Node-centric pruning, likewise, builds a deterministic incidence
// structure whose per-node edge lists are index-ascending — the order
// the sequential engine visits them — so per-neighborhood float sums
// and top-k selections replay exactly.
package parmeta

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/blocking"
	"repro/internal/container"
	"repro/internal/mapreduce"
	"repro/internal/metablocking"
)

// Workers resolves a worker-count option: values ≤ 0 mean one worker
// per available CPU (GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Build constructs the blocking graph concurrently and computes edge
// weights under the given scheme. The result is identical — including
// float weights, bit for bit — to metablocking.Build for any worker
// count; workers ≤ 0 means GOMAXPROCS. The edges and their evidence
// come from metablocking.BuildUnweighted over the same workers, and the
// weights from the sharded Reweigh.
func Build(col *blocking.Collection, scheme metablocking.Scheme, workers int) *metablocking.Graph {
	workers = Workers(workers)
	g := metablocking.BuildUnweighted(col, workers)
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
