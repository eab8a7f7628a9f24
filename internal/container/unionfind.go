// Package container provides the small data structures the resolution
// pipeline is built on: a disjoint-set forest for match clustering and
// a generic binary heap for meta-blocking's top-k edge selection.
package container

import "sync/atomic"

// UnionFind is a disjoint-set forest over integer identifiers 0..n-1
// with union by size and path compression. It clusters entity
// descriptions as matches are discovered.
//
// Mutation (Find's path compression, Union, Grow) is single-writer,
// but every parent write is an atomic store, so any number of
// goroutines may run SameRead concurrently with the writer — the
// lock-free read path the parallel matching engine's speculative
// neighbor-similarity scoring uses. The writer stamps that speculative
// work with Version and compares the stamp later; readers never call
// Version.
//
// The zero value is an empty forest; use NewUnionFind or Grow to size it.
type UnionFind struct {
	parent []int32
	size   []int32
	sets   int
	// version counts the merging Unions applied so far (path
	// compression does not bump it — it never changes membership). A
	// plain field: only the writer reads or writes it.
	version uint64
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	u.Grow(n)
	return u
}

// Grow extends the forest so that ids 0..n-1 are valid, adding new
// elements as singletons. Shrinking is not supported; smaller n is a no-op.
// Unlike Find/Union, Grow may reallocate the parent array and must not
// run while SameRead readers are active (the resolver quiesces its
// speculation waves before growing).
func (u *UnionFind) Grow(n int) {
	for i := len(u.parent); i < n; i++ {
		u.parent = append(u.parent, int32(i))
		u.size = append(u.size, 1)
		u.sets++
	}
}

// Len returns the number of elements in the forest.
func (u *UnionFind) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Version returns the number of merging Unions applied so far. It is
// writer-only, like Union: a plain read of the field Union bumps, so
// only the goroutine that mutates the forest may call it (the parallel
// matcher's committer, internal/core/parallel.go, does). Two equal
// readings bracket a window in which the membership relation was
// constant — the writer's revalidation handle for speculative work that
// readers computed off SameRead while it kept merging.
func (u *UnionFind) Version() uint64 { return u.version }

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	// Path compression. Writes are atomic stores so concurrent SameRead
	// root chases never tear; the writer's own reads need no ordering —
	// it is the only mutator.
	for int(u.parent[x]) != root {
		next := int(u.parent[x])
		atomic.StoreInt32(&u.parent[x], int32(root))
		x = next
	}
	return root
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	atomic.StoreInt32(&u.parent[ry], int32(rx))
	u.size[rx] += u.size[ry]
	u.sets--
	u.version++
	return true
}

// Same reports whether x and y are in the same set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// SameRead reports whether x and y are in the same set without
// mutating the forest: root chases use atomic loads and skip path
// compression, so any number of SameRead calls may run concurrently
// with the single writer. A call racing a Union may settle on either
// side of it; the writer, which alone may read Version, decides whether
// such a result is still exact. Racing only path compression is exact —
// compression moves parent pointers toward the same root it never
// changes.
func (u *UnionFind) SameRead(x, y int) bool { return u.findRead(x) == u.findRead(y) }

// findRead is Find's read-only form: every parent hop is an atomic
// load and nothing is written. Parent chains stay acyclic under
// compression and union-by-size, so the chase always terminates at a
// root that represented x's set at some instant during the call.
func (u *UnionFind) findRead(x int) int {
	for {
		p := int(atomic.LoadInt32(&u.parent[x]))
		if p == x {
			return x
		}
		x = p
	}
}

// SetSize returns the size of the set containing x.
func (u *UnionFind) SetSize(x int) int { return int(u.size[u.Find(x)]) }

// Components returns every set with at least minSize members, each as a
// slice of member ids in increasing order. Sets are ordered by their
// smallest member, giving deterministic output.
func (u *UnionFind) Components(minSize int) [][]int {
	groups := make(map[int][]int)
	for i := 0; i < len(u.parent); i++ {
		r := u.Find(i)
		groups[r] = append(groups[r], i)
	}
	var out [][]int
	for i := 0; i < len(u.parent); i++ {
		r := u.Find(i)
		if members, ok := groups[r]; ok {
			if len(members) >= minSize {
				out = append(out, members)
			}
			delete(groups, r)
		}
	}
	return out
}
