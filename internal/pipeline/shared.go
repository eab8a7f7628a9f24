package pipeline

import (
	"sort"
	"sync"

	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/mapreduce"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
	"repro/internal/tokenize"
)

// Shared is the shared-memory parallel engine: every front-end stage
// shards its input over contiguous ranges, merges per-shard state
// under an ownership partition (each partition touched by exactly one
// goroutine — no locks on the accumulation maps), and reassembles
// results in shard order so the output replays the sequential
// iteration order exactly. Graph construction and pruning delegate to
// internal/parmeta, which follows the same discipline.
//
// All stages are bit-identical to the Sequential reference for any
// worker count — same blocks in the same order, same float weights —
// which the differential tests in this package assert.
type Shared struct {
	// Workers is the parallelism (> 1).
	Workers int
}

// Name implements Engine.
func (Shared) Name() string { return "shared" }

// partsPerWorker oversubscribes merge partitions relative to workers
// so the dynamic schedule stays balanced when token or entity
// frequencies are skewed.
const partsPerWorker = 4

// TokenBlocking implements Engine: per-worker tokenization and local
// inverted indexes over contiguous id ranges, then a lock-free merge
// under a token-hash partition (each token owned by one partition, id
// lists concatenated in shard order — already sorted, since shards are
// ascending id ranges). Each partition's blocks come out sorted by key,
// with the blocks that induce no comparisons already pruned, and the
// partitions are merged into the global key order in parallel.
func (e Shared) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	cleanClean := src.NumLiveKBs() > 1
	col := &blocking.Collection{Source: src, CleanClean: cleanClean}
	if src.Len() == 0 {
		return col, nil
	}
	// Tokenize in parallel, priming the collection's token cache for
	// the rest of the pipeline (the matcher reads the same evidence).
	tokens := src.WarmTokens(opts, e.Workers)

	// Map: each worker scans a contiguous id range and deals (token,
	// id) into per-partition local inverted indexes. Ids are appended
	// in ascending order within a shard by construction.
	shards := mapreduce.Ranges(src.Len(), e.Workers)
	nParts := e.Workers * partsPerWorker
	emits := make([][]map[string][]int, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer wg.Done()
			parts := make([]map[string][]int, nParts)
			for id := r.Lo; id < r.Hi; id++ {
				if !src.Alive(id) {
					continue // tombstoned; the cache may still hold its tokens
				}
				for _, tok := range tokens[id] {
					p := tokenPartition(tok, nParts)
					m := parts[p]
					if m == nil {
						m = make(map[string][]int)
						parts[p] = m
					}
					m[tok] = append(m[tok], id)
				}
			}
			emits[s] = parts
		}(s, r)
	}
	wg.Wait()

	// Merge: each partition is owned by one goroutine. Concatenating a
	// token's id lists in shard order yields a sorted, duplicate-free
	// entity list (each description emits a token at most once, and
	// shard s's ids all precede shard s+1's), so no re-sort or dedup is
	// needed — only the sequential builder's pruning of blocks that
	// induce no comparisons.
	runs := make([][]blocking.Block, nParts)
	mapreduce.ForEach(nParts, e.Workers, func(p int) {
		merged := make(map[string][]int)
		for s := range emits {
			for tok, ids := range emits[s][p] {
				merged[tok] = append(merged[tok], ids...)
			}
		}
		keys := make([]string, 0, len(merged))
		for tok := range merged {
			keys = append(keys, tok)
		}
		sort.Strings(keys)
		var run []blocking.Block
		for _, tok := range keys {
			ids := merged[tok]
			if len(ids) < 2 {
				continue
			}
			b := blocking.Block{Key: tok, Entities: ids}
			if b.Comparisons(src, cleanClean) == 0 {
				continue
			}
			run = append(run, b)
		}
		runs[p] = run
	})
	col.Blocks = mergeBlockRuns(runs, e.Workers)
	return col, nil
}

// tokenPartition hashes a token to a merge partition (inline FNV-1a;
// allocation-free, unlike hashing through a []byte conversion). The
// choice of hash only affects load balance, never results: every token
// lands in exactly one partition either way.
func tokenPartition(tok string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(tok); i++ {
		h ^= uint32(tok[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// mergeBlockRuns merges sorted-by-key block runs into one sorted
// slice, pairwise and in parallel. Keys are globally distinct (each
// token hashes to one partition), so the comparator is a strict total
// order and the result equals a full sort.
func mergeBlockRuns(runs [][]blocking.Block, workers int) []blocking.Block {
	live := runs[:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	for len(live) > 1 {
		nPairs := (len(live) + 1) / 2
		next := make([][]blocking.Block, nPairs)
		mapreduce.ForEach(nPairs, workers, func(i int) {
			a := live[2*i]
			if 2*i+1 == len(live) {
				next[i] = a
				return
			}
			b := live[2*i+1]
			dst := make([]blocking.Block, 0, len(a)+len(b))
			x, y := 0, 0
			for x < len(a) && y < len(b) {
				if a[x].Key < b[y].Key {
					dst = append(dst, a[x])
					x++
				} else {
					dst = append(dst, b[y])
					y++
				}
			}
			dst = append(dst, a[x:]...)
			dst = append(dst, b[y:]...)
			next[i] = dst
		})
		live = next
	}
	if len(live) == 0 {
		return nil
	}
	return live[0]
}

// Purge implements Engine: a sharded block-size histogram picks the
// automatic cap (integer-exact, so merge order is irrelevant), then a
// sharded keep pass reassembles the surviving blocks in block order.
func (e Shared) Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error) {
	if maxSize <= 0 {
		shards := mapreduce.Ranges(len(col.Blocks), e.Workers)
		hists := make([]map[int]int, len(shards))
		var wg sync.WaitGroup
		for s, r := range shards {
			wg.Add(1)
			go func(s int, r mapreduce.Range) {
				defer wg.Done()
				h := make(map[int]int)
				for bi := r.Lo; bi < r.Hi; bi++ {
					h[col.Blocks[bi].Size()]++
				}
				hists[s] = h
			}(s, r)
		}
		wg.Wait()
		merged := make(map[int]int)
		for _, h := range hists {
			for n, cnt := range h {
				merged[n] += cnt
			}
		}
		maxSize = blocking.AutoPurgeSizeFromHistogram(merged)
	}
	out := &blocking.Collection{Source: col.Source, CleanClean: col.CleanClean}
	out.Blocks = keepBlocks(col, e.Workers, func(b *blocking.Block) bool {
		return b.Size() <= maxSize
	})
	return out, nil
}

// keepBlocks filters col.Blocks with pred over contiguous shards and
// concatenates the survivors in shard order — the sequential scan
// order.
func keepBlocks(col *blocking.Collection, workers int, pred func(b *blocking.Block) bool) []blocking.Block {
	shards := mapreduce.Ranges(len(col.Blocks), workers)
	parts := make([][]blocking.Block, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer wg.Done()
			var kept []blocking.Block
			for bi := r.Lo; bi < r.Hi; bi++ {
				if pred(&col.Blocks[bi]) {
					kept = append(kept, col.Blocks[bi])
				}
			}
			parts[s] = kept
		}(s, r)
	}
	wg.Wait()
	return concatBlocks(parts)
}

// concatBlocks concatenates per-shard block slices in shard order —
// the sequential scan order, since shards are contiguous ascending
// ranges.
func concatBlocks(parts [][]blocking.Block) []blocking.Block {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]blocking.Block, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Filter implements Engine: the size ranks are computed once (cheap,
// and total — ties break by block index), the entity→blocks index is
// built as a deterministic parallel CSR, each entity's smallest-rank
// assignments are marked over disjoint entity ranges, and the blocks
// are rebuilt over disjoint block ranges. Identical to the sequential
// Filter for any worker count.
func (e Shared) Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error) {
	if ratio <= 0 || ratio > 1 {
		ratio = 0.8
	}
	rank := col.SizeRanks()
	start, csr := col.EntityCSR(e.Workers)

	// kept[slot] marks assignment slots (entity × block, in the CSR
	// layout) that survive filtering. Entity ranges are disjoint, so
	// the writes are race-free.
	kept := make([]bool, len(csr))
	numEnts := col.Source.Len()
	var wg sync.WaitGroup
	for _, r := range mapreduce.Ranges(numEnts, e.Workers) {
		wg.Add(1)
		go func(r mapreduce.Range) {
			defer wg.Done()
			var pos []int
			for id := r.Lo; id < r.Hi; id++ {
				lo, hi := int(start[id]), int(start[id+1])
				n := hi - lo
				if n == 0 {
					continue
				}
				limit := blocking.FilterLimit(ratio, n)
				pos = pos[:0]
				for i := 0; i < n; i++ {
					pos = append(pos, lo+i)
				}
				// Ranks are a permutation — a strict total order — so
				// the selected set matches the sequential engine's.
				sort.Slice(pos, func(a, b int) bool {
					return rank[csr[pos[a]]] < rank[csr[pos[b]]]
				})
				for _, p := range pos[:limit] {
					kept[p] = true
				}
			}
		}(r)
	}
	wg.Wait()

	// Rebuild the blocks over disjoint block shards: membership of id
	// in block bi is kept[slot of bi in id's CSR row] (rows are
	// ascending, so the slot is a binary search away).
	out := &blocking.Collection{Source: col.Source, CleanClean: col.CleanClean}
	shards := mapreduce.Ranges(len(col.Blocks), e.Workers)
	parts := make([][]blocking.Block, len(shards))
	var rwg sync.WaitGroup
	for s, r := range shards {
		rwg.Add(1)
		go func(s int, r mapreduce.Range) {
			defer rwg.Done()
			var rebuilt []blocking.Block
			for bi := r.Lo; bi < r.Hi; bi++ {
				var members []int
				for _, id := range col.Blocks[bi].Entities {
					row := csr[start[id]:start[id+1]]
					slot := sort.Search(len(row), func(i int) bool { return int(row[i]) >= bi })
					if kept[int(start[id])+slot] {
						members = append(members, id)
					}
				}
				if len(members) < 2 {
					continue
				}
				nb := blocking.Block{Key: col.Blocks[bi].Key, Entities: members}
				if nb.Comparisons(col.Source, col.CleanClean) == 0 {
					continue
				}
				rebuilt = append(rebuilt, nb)
			}
			parts[s] = rebuilt
		}(s, r)
	}
	rwg.Wait()
	out.Blocks = concatBlocks(parts)
	return out, nil
}

// Build implements Engine via the sharded builder in internal/parmeta.
func (e Shared) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	return parmeta.Build(col, scheme, e.Workers), nil
}

// Prune implements Engine via the sharded pruner in internal/parmeta.
func (e Shared) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	return parmeta.Prune(g, alg, opts, e.Workers), nil
}

// Ingest implements Engine.
func (e Shared) Ingest(st *State) error { return st.refresh(e) }

// Evict implements Engine.
func (e Shared) Evict(st *State) error { return st.refresh(e) }
