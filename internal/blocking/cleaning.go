package blocking

import (
	"math"
	"sort"
)

// Purge removes oversized blocks — high-frequency tokens such as
// "city" place thousands of descriptions together and carry almost no
// matching evidence, yet dominate the comparison cost.
//
// maxSize caps block cardinality explicitly; pass 0 to choose the cap
// automatically with AutoPurgeSize. Returns a new Collection; the
// receiver is unchanged.
func (col *Collection) Purge(maxSize int) *Collection {
	if maxSize <= 0 {
		maxSize = col.AutoPurgeSize()
	}
	out := &Collection{Source: col.Source, CleanClean: col.CleanClean}
	for i := range col.Blocks {
		if col.Blocks[i].Size() <= maxSize {
			out.Blocks = append(out.Blocks, col.Blocks[i])
		}
	}
	return out
}

// AutoPurgeSize picks a block-cardinality cap: the smallest size S
// such that blocks of size ≤ S still hold at least 90% of all
// entity-to-block assignments. Oversized blocks above the cap carry a
// thin slice of the assignment mass but — comparisons growing
// quadratically in block size — the bulk of the cost; dropping them
// loses little completeness (an entity in a huge block almost always
// co-occurs with its duplicates in smaller, rarer-key blocks too, the
// rationale of block purging in Papadakis et al.).
func (col *Collection) AutoPurgeSize() int {
	hist := make(map[int]int) // block size → number of blocks of that size
	for i := range col.Blocks {
		hist[col.Blocks[i].Size()]++
	}
	if len(hist) == 0 {
		return 0
	}
	const coverage = 0.90
	total := 0.0
	sizes := make([]int, 0, len(hist))
	for n, cnt := range hist {
		sizes = append(sizes, n)
		total += float64(n) * float64(cnt)
	}
	sort.Ints(sizes)
	cum := 0.0
	for _, n := range sizes {
		cum += float64(n) * float64(hist[n])
		if cum >= coverage*total {
			return n
		}
	}
	return sizes[len(sizes)-1]
}

// sizeRanks ranks the blocks by size, ties broken by block index: the
// returned slice maps each block index to its rank, a permutation of
// [0, len(Blocks)). Block filtering keeps each entity's smallest-rank
// blocks; the rank order is total, so the selection is unique.
func (col *Collection) sizeRanks() []int {
	order := make([]int, len(col.Blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := col.Blocks[order[a]].Size(), col.Blocks[order[b]].Size()
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	rank := make([]int, len(col.Blocks))
	for r, bi := range order {
		rank[bi] = r
	}
	return rank
}

// Filter applies block filtering: each description is retained only in
// the ⌈ratio·|blocks(e)|⌉ smallest of its blocks. Smaller blocks carry
// stronger evidence (rarer keys), so trimming each entity's largest
// blocks removes weak candidates at minimal recall cost. ratio must be
// in (0, 1]; the canonical setting is 0.8.
//
// Returns a new Collection; blocks left with fewer than two
// descriptions (or no cross-KB pair) are dropped.
func (col *Collection) Filter(ratio float64) *Collection {
	if ratio <= 0 || ratio > 1 {
		ratio = 0.8
	}
	rank := col.sizeRanks()

	// For each entity, keep the blocks with the smallest ranks.
	idx := col.EntityIndex()
	keep := make([]map[int]struct{}, len(idx)) // entity → kept block indices
	for e, blocks := range idx {
		if len(blocks) == 0 {
			continue
		}
		limit := int(math.Ceil(ratio * float64(len(blocks))))
		bs := append([]int32(nil), blocks...)
		sort.Slice(bs, func(a, b int) bool { return rank[bs[a]] < rank[bs[b]] })
		keep[e] = make(map[int]struct{}, limit)
		for _, bi := range bs[:limit] {
			keep[e][int(bi)] = struct{}{}
		}
	}

	out := &Collection{Source: col.Source, CleanClean: col.CleanClean}
	for bi := range col.Blocks {
		var members []int
		for _, id := range col.Blocks[bi].Entities {
			if _, ok := keep[id][bi]; ok {
				members = append(members, id)
			}
		}
		if len(members) < 2 {
			continue
		}
		nb := Block{Key: col.Blocks[bi].Key, Entities: members}
		if nb.Comparisons(col.Source, col.CleanClean) == 0 {
			continue
		}
		out.Blocks = append(out.Blocks, nb)
	}
	return out
}
