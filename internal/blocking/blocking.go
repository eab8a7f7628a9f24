// Package blocking implements the schema-agnostic blocking layer of
// Minoan ER: token blocking (every token of every value and of the URI
// infix is a block key), attribute-clustering blocking (token keys
// partitioned by clusters of similar attributes), and the standard
// block-cleaning steps — block purging and block filtering — that
// discard oversized, low-evidence blocks before meta-blocking.
package blocking

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/kb"
	"repro/internal/parmeta"
	"repro/internal/tokenize"
)

// Block is one block: the set of description ids that share a key.
// Entities are sorted ascending and duplicate-free.
type Block struct {
	Key      string
	Entities []int
}

// Size returns the number of descriptions in the block.
func (b *Block) Size() int { return len(b.Entities) }

// Comparisons returns the number of distinct pairs the block induces.
// In clean–clean settings cross counts only cross-KB pairs; pass nil
// to count all pairs (dirty ER).
func (b *Block) Comparisons(c *kb.Collection, cleanClean bool) int {
	n := len(b.Entities)
	if !cleanClean || c == nil {
		return n * (n - 1) / 2
	}
	// Count pairs spanning different KBs: total pairs minus same-KB
	// pairs. KB counts fit a stack array in the common case — this runs
	// once per block per pipeline pass, and a heap map here dominated
	// the cleaning stages' allocation profile.
	total := n * (n - 1) / 2
	if nk := c.NumKBs(); nk <= 16 {
		var perKB [16]int
		for _, id := range b.Entities {
			perKB[c.KBOf(id)]++
		}
		for _, k := range perKB[:nk] {
			total -= k * (k - 1) / 2
		}
		return total
	}
	perKB := make(map[int]int)
	for _, id := range b.Entities {
		perKB[c.KBOf(id)]++
	}
	for _, k := range perKB {
		total -= k * (k - 1) / 2
	}
	return total
}

// Collection is a set of blocks over a kb.Collection.
type Collection struct {
	Blocks []Block
	// Source is the underlying description collection.
	Source *kb.Collection
	// CleanClean records whether comparisons are restricted to cross-KB
	// pairs (true when the source has more than one KB).
	CleanClean bool
}

// TokenBlocking builds one block per token appearing in any attribute
// value or URI infix of any live description. Blocks with fewer than
// two descriptions (or, in clean–clean settings, no cross-KB pair) are
// dropped — they induce no comparisons. Evicted descriptions are
// invisible: the result equals token blocking over a collection that
// never held them.
func TokenBlocking(src *kb.Collection, opts tokenize.Options) *Collection {
	byKey := make(map[string][]int)
	for id := 0; id < src.Len(); id++ {
		if !src.Alive(id) {
			continue
		}
		for _, tok := range src.Tokens(id, opts) {
			byKey[tok] = append(byKey[tok], id)
		}
	}
	return assemble(src, byKey)
}

// assemble turns a key→ids map into a sorted, pruned Collection.
func assemble(src *kb.Collection, byKey map[string][]int) *Collection {
	col := &Collection{Source: src, CleanClean: src.NumLiveKBs() > 1}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic block order
	for _, k := range keys {
		ids := dedupSorted(byKey[k])
		if len(ids) < 2 {
			continue
		}
		b := Block{Key: k, Entities: ids}
		if b.Comparisons(src, col.CleanClean) == 0 {
			continue
		}
		col.Blocks = append(col.Blocks, b)
	}
	return col
}

func dedupSorted(ids []int) []int {
	sort.Ints(ids)
	out := ids[:0]
	for i, v := range ids {
		if i == 0 || v != ids[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// NumBlocks returns the number of blocks.
func (col *Collection) NumBlocks() int { return len(col.Blocks) }

// TotalComparisons returns the aggregate number of pairwise comparisons
// across blocks, counting a pair once per block it appears in (the
// pre-meta-blocking cost, including repetitions).
func (col *Collection) TotalComparisons() int {
	total := 0
	for i := range col.Blocks {
		total += col.Blocks[i].Comparisons(col.Source, col.CleanClean)
	}
	return total
}

// Assignments returns the total number of entity-to-block placements
// (the "block assignments" size measure Σ|b|).
func (col *Collection) Assignments() int {
	total := 0
	for i := range col.Blocks {
		total += len(col.Blocks[i].Entities)
	}
	return total
}

// Pair is an unordered candidate comparison (A < B by construction).
type Pair struct {
	A, B int
}

// MakePair normalizes an unordered pair.
func MakePair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// DistinctPairs enumerates every distinct candidate pair induced by the
// blocks (each pair once, even if it co-occurs in many blocks),
// respecting the clean–clean restriction. Pairs are returned in
// deterministic order.
func (col *Collection) DistinctPairs() []Pair {
	seen := make(map[Pair]struct{})
	var out []Pair
	for i := range col.Blocks {
		b := &col.Blocks[i]
		for x := 0; x < len(b.Entities); x++ {
			for y := x + 1; y < len(b.Entities); y++ {
				a, bid := b.Entities[x], b.Entities[y]
				if col.CleanClean && !col.Source.CrossKB(a, bid) {
					continue
				}
				p := MakePair(a, bid)
				if _, dup := seen[p]; dup {
					continue
				}
				seen[p] = struct{}{}
				out = append(out, p)
			}
		}
	}
	return out
}

// EntityIndex maps each description id to the indices (into Blocks) of
// the blocks that contain it — the inverted structure meta-blocking
// traverses.
func (col *Collection) EntityIndex() [][]int32 {
	idx := make([][]int32, col.Source.Len())
	for bi := range col.Blocks {
		for _, id := range col.Blocks[bi].Entities {
			idx[id] = append(idx[id], int32(bi))
		}
	}
	return idx
}

// EntityCSR builds the entity→blocks index in CSR form:
// csr[start[id]:start[id+1]] lists the block indices containing id, in
// ascending order. Construction shards contiguous block ranges;
// per-entity, per-shard cursor ranges are disjoint, so the fill is
// lock-free and the layout is identical for any worker count. The
// blocking-graph kernel reads it.
func (col *Collection) EntityCSR(workers int) (start, csr []int32) {
	numEnts := col.Source.Len()
	shards := parmeta.Ranges(len(col.Blocks), workers)
	counts := make([][]int32, len(shards))
	var wg sync.WaitGroup
	for s, r := range shards {
		wg.Add(1)
		go func(s int, r parmeta.Range) {
			defer wg.Done()
			c := make([]int32, numEnts)
			for bi := r.Lo; bi < r.Hi; bi++ {
				for _, id := range col.Blocks[bi].Entities {
					c[id]++
				}
			}
			counts[s] = c
		}(s, r)
	}
	wg.Wait()

	start = make([]int32, numEnts+1)
	pos := int32(0)
	for id := 0; id < numEnts; id++ {
		start[id] = pos
		for s := range counts {
			c := counts[s][id]
			counts[s][id] = pos
			pos += c
		}
	}
	start[numEnts] = pos

	csr = make([]int32, pos)
	var fwg sync.WaitGroup
	for s, r := range shards {
		fwg.Add(1)
		go func(s int, r parmeta.Range) {
			defer fwg.Done()
			cur := counts[s]
			for bi := r.Lo; bi < r.Hi; bi++ {
				for _, id := range col.Blocks[bi].Entities {
					csr[cur[id]] = int32(bi)
					cur[id]++
				}
			}
		}(s, r)
	}
	fwg.Wait()
	return start, csr
}

// Stats summarizes a block collection.
type Stats struct {
	Blocks      int
	Assignments int
	Comparisons int
	MaxSize     int
	AvgSize     float64
}

// Stats computes summary statistics.
func (col *Collection) Stats() Stats {
	s := Stats{Blocks: len(col.Blocks)}
	for i := range col.Blocks {
		n := col.Blocks[i].Size()
		s.Assignments += n
		if n > s.MaxSize {
			s.MaxSize = n
		}
	}
	s.Comparisons = col.TotalComparisons()
	if s.Blocks > 0 {
		s.AvgSize = float64(s.Assignments) / float64(s.Blocks)
	}
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("blocks=%d assignments=%d comparisons=%d max=%d avg=%.1f",
		s.Blocks, s.Assignments, s.Comparisons, s.MaxSize, s.AvgSize)
}
