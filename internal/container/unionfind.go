// Package container provides the disjoint-set forest match clustering
// is built on. It is a plain single-goroutine structure, not safe for
// concurrent use.
package container

// UnionFind is a disjoint-set forest over integer identifiers 0..n-1
// with union by size and path compression. It clusters entity
// descriptions as matches are discovered. Find compresses paths, so
// even a read mutates the forest.
//
// The zero value is an empty forest; use NewUnionFind or Grow to size it.
type UnionFind struct {
	parent []int32
	size   []int32
	sets   int
}

// NewUnionFind returns a forest of n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	u.Grow(n)
	return u
}

// Grow extends the forest so that ids 0..n-1 are valid, adding new
// elements as singletons. Shrinking is not supported; smaller n is a no-op.
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

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := x
	for int(u.parent[root]) != root {
		root = int(u.parent[root])
	}
	// Path compression.
	for int(u.parent[x]) != root {
		next := int(u.parent[x])
		u.parent[x] = int32(root)
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
	u.parent[ry] = int32(rx)
	u.size[rx] += u.size[ry]
	u.sets--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

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
