package container

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("Len=%d Sets=%d, want 5,5", u.Len(), u.Sets())
	}
	if !u.Union(0, 1) {
		t.Error("first union reported no merge")
	}
	if u.Union(1, 0) {
		t.Error("repeated union reported a merge")
	}
	if !u.Same(0, 1) || u.Same(0, 2) {
		t.Error("Same wrong after union")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Sets() != 2 {
		t.Errorf("Sets=%d, want 2", u.Sets())
	}
	if u.SetSize(1) != 4 {
		t.Errorf("SetSize=%d, want 4", u.SetSize(1))
	}
	if u.SetSize(4) != 1 {
		t.Errorf("singleton SetSize=%d, want 1", u.SetSize(4))
	}
}

func TestUnionFindGrow(t *testing.T) {
	u := NewUnionFind(2)
	u.Union(0, 1)
	u.Grow(4)
	if u.Len() != 4 || u.Sets() != 3 {
		t.Fatalf("after grow Len=%d Sets=%d, want 4,3", u.Len(), u.Sets())
	}
	u.Grow(2) // shrink is a no-op
	if u.Len() != 4 {
		t.Errorf("shrink changed Len to %d", u.Len())
	}
	if !u.Same(0, 1) {
		t.Error("grow lost existing union")
	}
}

func TestUnionFindComponents(t *testing.T) {
	u := NewUnionFind(6)
	u.Union(4, 2)
	u.Union(2, 0)
	u.Union(5, 3)
	comps := u.Components(2)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2: %v", len(comps), comps)
	}
	// Ordered by smallest member; members ascending.
	want0, want1 := []int{0, 2, 4}, []int{3, 5}
	if !equalInts(comps[0], want0) || !equalInts(comps[1], want1) {
		t.Errorf("components = %v, want [%v %v]", comps, want0, want1)
	}
	all := u.Components(1)
	if len(all) != 3 {
		t.Errorf("minSize=1 gave %d components, want 3", len(all))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: after any sequence of unions, Sets() equals n minus the
// number of effective merges, and Same is an equivalence relation
// consistent with a naive reference implementation.
func TestUnionFindMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		u := NewUnionFind(n)
		ref := make([]int, n) // naive labels
		for i := range ref {
			ref[i] = i
		}
		merges := 0
		for k := 0; k < 3*n; k++ {
			x, y := rng.Intn(n), rng.Intn(n)
			got := u.Union(x, y)
			want := ref[x] != ref[y]
			if got != want {
				return false
			}
			if want {
				merges++
				old, nw := ref[x], ref[y]
				for i := range ref {
					if ref[i] == old {
						ref[i] = nw
					}
				}
			}
		}
		if u.Sets() != n-merges {
			return false
		}
		for k := 0; k < n; k++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if u.Same(x, y) != (ref[x] == ref[y]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
