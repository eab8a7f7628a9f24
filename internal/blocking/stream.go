package blocking

import (
	"sort"

	"repro/internal/kb"
	"repro/internal/tokenize"
)

// Stream is a replayable sequence of blocks in ascending key order —
// the iterator-composed stage boundary of the blocking front-end.
// Instead of each stage materializing a full Collection for the next,
// stages compose as stream transforms (Purge, Filter) over one
// underlying generator, and only the final consumer decides what to
// hold: Collect materializes, the graph builder folds blocks as they
// are yielded.
//
// Ranging is pull-based and replayable: calling Blocks again replays
// the sequence from the stream's underlying state, which is how
// inherently two-pass transforms (the purge histogram, the filter
// ranks) work without materializing their input. The yielded *Block is
// owned by the stream and valid only until yield returns; its Entities
// may alias shared storage (postings, upstream blocks), exactly as
// materialized collections alias them today. Streams are not safe for
// concurrent iteration.
type Stream struct {
	// Source is the underlying description collection.
	Source *kb.Collection
	// CleanClean records whether comparisons are restricted to
	// cross-KB pairs.
	CleanClean bool
	// Blocks drives one iteration: it calls yield once per block in
	// ascending key order, stopping early if yield returns false.
	Blocks func(yield func(b *Block) bool)
}

// Stream adapts a materialized Collection to the stream boundary.
func (col *Collection) Stream() Stream {
	return Stream{Source: col.Source, CleanClean: col.CleanClean,
		Blocks: func(yield func(b *Block) bool) {
			for i := range col.Blocks {
				if !yield(&col.Blocks[i]) {
					return
				}
			}
		}}
}

// Collect materializes the stream into a Collection — the one point in
// an iterator-composed pipeline where block headers are held. Entities
// alias whatever the stream yielded.
func (s Stream) Collect() *Collection {
	col := &Collection{Source: s.Source, CleanClean: s.CleanClean}
	s.Blocks(func(b *Block) bool {
		col.Blocks = append(col.Blocks, *b)
		return true
	})
	return col
}

// TokenBlockingStream is token blocking as a stream source: the
// inverted token index is built once (it must exist — grouping is not
// streamable), but no []Block is ever materialized; blocks are yielded
// in ascending key order with the same pruning TokenBlocking applies
// (fewer than two members, or no comparisons, dropped).
func TokenBlockingStream(src *kb.Collection, opts tokenize.Options) Stream {
	byKey := make(map[string][]int)
	for id := 0; id < src.Len(); id++ {
		if !src.Alive(id) {
			continue
		}
		for _, tok := range src.Tokens(id, opts) {
			byKey[tok] = append(byKey[tok], id)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cleanClean := src.NumLiveKBs() > 1
	return Stream{Source: src, CleanClean: cleanClean,
		Blocks: func(yield func(b *Block) bool) {
			for _, k := range keys {
				ids := dedupSorted(byKey[k])
				byKey[k] = ids // idempotent; keeps replays cheap
				if len(ids) < 2 {
					continue
				}
				b := Block{Key: k, Entities: ids}
				if b.Comparisons(src, cleanClean) == 0 {
					continue
				}
				if !yield(&b) {
					return
				}
			}
		}}
}

// MergeRunsStream yields the k-way merge of sorted-by-key block runs
// lazily, in ascending key order. Keys must be globally distinct across
// runs (each token owned by one run), so the merge order is total. The
// shared-memory engine's stream front door: its merge partitions stay
// where they were built and blocks flow to the transforms one at a
// time, instead of being concatenated into one materialized slice.
func MergeRunsStream(src *kb.Collection, cleanClean bool, runs [][]Block) Stream {
	live := make([][]Block, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	return Stream{Source: src, CleanClean: cleanClean,
		Blocks: func(yield func(b *Block) bool) {
			cur := make([]int, len(live))
			for {
				min := -1
				for r := range live {
					if cur[r] == len(live[r]) {
						continue
					}
					if min < 0 || live[r][cur[r]].Key < live[min][cur[min]].Key {
						min = r
					}
				}
				if min < 0 {
					return
				}
				if !yield(&live[min][cur[min]]) {
					return
				}
				cur[min]++
			}
		}}
}

// Purge is block purging as a stream transform: blocks above the size
// cap are dropped as they flow past. With maxSize ≤ 0 the cap is
// chosen automatically — one extra replay of the upstream builds the
// size histogram, memoized across replays of the result.
func (s Stream) Purge(maxSize int) Stream {
	limit, resolved := maxSize, maxSize > 0
	out := s
	out.Blocks = func(yield func(b *Block) bool) {
		if !resolved {
			hist := make(map[int]int)
			s.Blocks(func(b *Block) bool {
				hist[b.Size()]++
				return true
			})
			limit = AutoPurgeSizeFromHistogram(hist)
			resolved = true
		}
		s.Blocks(func(b *Block) bool {
			if b.Size() > limit {
				return true
			}
			return yield(b)
		})
	}
	return out
}

// Filter is block filtering as a stream transform: each description is
// retained only in the ⌈ratio·|blocks(e)|⌉ smallest of its blocks. The
// first iteration runs the analysis passes over the upstream — block
// sizes and ranks, an exact-size entity→position index, per-entity
// selection — and memoizes the verdicts; every iteration then rebuilds
// surviving members as blocks flow past, without the upstream ever
// being materialized. Results are identical to Collection.Filter.
func (s Stream) Filter(ratio float64) Stream {
	if ratio <= 0 || ratio > 1 {
		ratio = 0.8
	}
	st := &filterState{}
	out := s
	out.Blocks = func(yield func(b *Block) bool) {
		if !st.ready {
			st.analyze(s, ratio)
		}
		// Per-entity cursor over its kept positions (ascending); blocks
		// arrive in ascending position order, so each row is walked once.
		cur := make([]int32, len(st.klen))
		copy(cur, st.start[:len(st.klen)])
		pos := int32(-1)
		s.Blocks(func(b *Block) bool {
			pos++
			if st.keepCnt[pos] < 2 {
				return true // cursors catch up lazily
			}
			members := make([]int, 0, st.keepCnt[pos])
			for _, id := range b.Entities {
				end := st.start[id] + st.klen[id]
				for cur[id] < end && st.slab[cur[id]] < pos {
					cur[id]++
				}
				if cur[id] < end && st.slab[cur[id]] == pos {
					members = append(members, id)
					cur[id]++
				}
			}
			nb := Block{Key: b.Key, Entities: members}
			if nb.Comparisons(s.Source, s.CleanClean) == 0 {
				return true
			}
			return yield(&nb)
		})
	}
	return out
}

// filterState is the memoized analysis of a Filter transform: the
// entity→position CSR (slab rows, kept prefix per entity) and the
// per-position surviving member counts.
type filterState struct {
	ready   bool
	start   []int32 // entity → slab row offset (len = entities + 1)
	klen    []int32 // entity → kept prefix length of its row
	slab    []int32 // rows of block positions; kept prefix ascending
	keepCnt []int32 // position → surviving member count
}

func (st *filterState) analyze(s Stream, ratio float64) {
	numEnts := s.Source.Len()

	// Pass A: per-position sizes and per-entity assignment counts.
	var sizes []int32
	counts := make([]int32, numEnts)
	s.Blocks(func(b *Block) bool {
		sizes = append(sizes, int32(b.Size()))
		for _, id := range b.Entities {
			counts[id]++
		}
		return true
	})

	// Ranks by (size, position) — identical to Collection.SizeRanks,
	// since stream position is block index.
	order := make([]int32, len(sizes))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] < sizes[order[b]]
		}
		return order[a] < order[b]
	})
	rank := make([]int32, len(sizes))
	for r, p := range order {
		rank[p] = int32(r)
	}

	// Pass B: exact-size CSR fill of entity → positions.
	st.start = make([]int32, numEnts+1)
	pos := int32(0)
	for id := 0; id < numEnts; id++ {
		st.start[id] = pos
		pos += counts[id]
		counts[id] = st.start[id] // repurposed as fill cursor
	}
	st.start[numEnts] = pos
	st.slab = make([]int32, pos)
	bi := int32(-1)
	s.Blocks(func(b *Block) bool {
		bi++
		for _, id := range b.Entities {
			st.slab[counts[id]] = bi
			counts[id]++
		}
		return true
	})

	// Selection: sort each row by rank, keep the limit smallest, then
	// restore ascending position order over the kept prefix. The ranks
	// are a permutation — a strict total order — so the kept set
	// matches the materialized Filter's.
	st.klen = make([]int32, numEnts)
	st.keepCnt = make([]int32, len(sizes))
	for id := 0; id < numEnts; id++ {
		row := st.slab[st.start[id]:st.start[id+1]]
		if len(row) == 0 {
			continue
		}
		limit := FilterLimit(ratio, len(row))
		sort.Slice(row, func(a, b int) bool { return rank[row[a]] < rank[row[b]] })
		kept := row[:limit]
		sort.Slice(kept, func(a, b int) bool { return kept[a] < kept[b] })
		st.klen[id] = int32(limit)
		for _, p := range kept {
			st.keepCnt[p]++
		}
	}
	st.ready = true
}
