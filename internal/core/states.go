package core

import (
	"iter"
	"slices"

	"repro/internal/blocking"
	"repro/internal/metablocking"
)

// pairStates is the resolver's store of pair states, addressed by rank.
// Ranks below len(slab) are the distinct retained edges in edge order;
// a pair's rank is found through a CSR keyed by its smaller endpoint,
// whose row lists the larger partners ascending, each packed with its
// rank. Pairs outside the edge list — discovered by the update phase,
// Reseed's leftovers, Retract's matched-but-unretained pairs — are
// appended to more (ranks len(slab) and up) and found through a small
// map. Positional arrays over dense ids instead of one hash entry per
// retained pair is the lesson of Relational E-Matching
// (arXiv:2108.02290): the index is built by counting passes in time
// linear in edges plus ids, and holds no pointers.
type pairStates struct {
	slab  []pairState
	start []int32  // row offsets into cells, by smaller endpoint
	cells []uint64 // partner<<32 | rank, ascending within a row
	more  []pairState
	extra map[uint64]int32 // pairKey → rank, for the pairs in more
}

// indexEdges builds the store over a retained edge list in any order,
// duplicates included: the first occurrence of each pair gets the next
// rank, a state holding the pair and its weight divided by maxW.
func indexEdges(edges []metablocking.Edge, maxW float64) pairStates {
	nodes, rows := 0, 0
	for _, e := range edges {
		nodes = max(nodes, e.A+1, e.B+1)
		rows = max(rows, min(e.A, e.B)+1)
	}
	// Two stable counting passes over the edge positions — by larger
	// endpoint, then by smaller — leave every row sorted by (partner,
	// position) with no comparison sort.
	byB := make([]int32, len(edges))
	count := make([]int32, nodes+1)
	for _, e := range edges {
		count[max(e.A, e.B)+1]++
	}
	for b := 1; b <= nodes; b++ {
		count[b] += count[b-1]
	}
	for i, e := range edges {
		b := max(e.A, e.B)
		byB[count[b]] = int32(i)
		count[b]++
	}
	// start[a] ends as the first slot of row a.
	start := make([]int32, rows+1)
	for _, e := range edges {
		start[min(e.A, e.B)+1]++
	}
	for a := 1; a <= rows; a++ {
		start[a] += start[a-1]
	}
	cells := make([]uint64, len(edges))
	for _, i := range byB {
		p := blocking.MakePair(edges[i].A, edges[i].B)
		cells[start[p.A]] = uint64(p.B)<<32 | uint64(i)
		start[p.A]++
	}
	copy(start[1:], start[:rows])
	start[0] = 0

	// A partner repeated within a row is a duplicate pair; the earlier
	// position keeps it.
	dups := false
	for a := 0; a < rows && !dups; a++ {
		for j := start[a] + 1; j < start[a+1]; j++ {
			if cells[j]>>32 == cells[j-1]>>32 {
				dups = true
				break
			}
		}
	}
	var rank []int32 // edge position → rank, -1 for a duplicate; nil if none
	n := len(edges)
	if dups {
		rank, n = dedupRows(start, cells)
	}

	slab := make([]pairState, n)
	for i, e := range edges {
		r := i
		if rank != nil {
			if r = int(rank[i]); r < 0 {
				continue
			}
		}
		slab[r] = pairState{pair: blocking.MakePair(e.A, e.B), base: e.Weight / maxW}
	}
	return pairStates{slab: slab, start: start, cells: cells}
}

// dedupRows drops the duplicate cells of sorted rows (a partner equal
// to its predecessor's), compacting the rows to the front of cs and
// start in place, and renumbers the survivors: it returns each edge
// position's rank — its index among first occurrences, or -1 for a
// duplicate — and the count of distinct pairs.
func dedupRows(start []int32, cs []uint64) ([]int32, int) {
	const lowMask = 1<<32 - 1
	rank := make([]int32, len(cs))
	for a := 0; a+1 < len(start); a++ {
		for j := start[a] + 1; j < start[a+1]; j++ {
			if cs[j]>>32 == cs[j-1]>>32 {
				rank[cs[j]&lowMask] = -1
			}
		}
	}
	distinct := 0
	for i, r := range rank {
		if r == 0 {
			rank[i] = int32(distinct)
			distinct++
		}
	}
	w, lo := int32(0), start[0]
	for a := 0; a+1 < len(start); a++ {
		hi := start[a+1]
		start[a] = w
		for _, c := range cs[lo:hi] {
			if r := rank[c&lowMask]; r >= 0 {
				cs[w] = c&^lowMask | uint64(r)
				w++
			}
		}
		lo = hi
	}
	start[len(start)-1] = w
	return rank, distinct
}

// edgeRank returns the rank of p among the retained edges, searching
// p.A's CSR row for p.B.
func (s *pairStates) edgeRank(p blocking.Pair) (int32, bool) {
	if p.A+1 >= len(s.start) {
		return 0, false
	}
	row := s.cells[s.start[p.A]:s.start[p.A+1]]
	j, _ := slices.BinarySearch(row, uint64(p.B)<<32)
	if j < len(row) && row[j]>>32 == uint64(p.B) {
		return int32(uint32(row[j])), true
	}
	return 0, false
}

// find returns p's rank and state — a retained edge's through the CSR,
// any other tracked pair's through the map — or nil if p has none.
func (s *pairStates) find(p blocking.Pair) (int32, *pairState) {
	if r, ok := s.edgeRank(p); ok {
		return r, &s.slab[r]
	}
	if r, ok := s.extra[pairKey(p)]; ok {
		return r, s.at(r)
	}
	return 0, nil
}

// at returns the state of rank r. A pointer into more is valid until
// the next add.
func (s *pairStates) at(r int32) *pairState {
	if int(r) < len(s.slab) {
		return &s.slab[r]
	}
	return &s.more[int(r)-len(s.slab)]
}

// add tracks a pair outside the edge list, returning its rank and state.
func (s *pairStates) add(st pairState) (int32, *pairState) {
	r := int32(len(s.slab) + len(s.more))
	s.more = append(s.more, st)
	if s.extra == nil {
		s.extra = make(map[uint64]int32)
	}
	s.extra[pairKey(st.pair)] = r
	return r, &s.more[len(s.more)-1]
}

// all yields every tracked state: the edge slab in rank order, then the
// pairs outside it in the order they were added.
func (s *pairStates) all() iter.Seq[*pairState] {
	return func(yield func(*pairState) bool) {
		for i := range s.slab {
			if !yield(&s.slab[i]) {
				return
			}
		}
		for i := range s.more {
			if !yield(&s.more[i]) {
				return
			}
		}
	}
}
