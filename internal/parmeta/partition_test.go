package parmeta_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/parmeta"
)

// TestRanges checks the contract the order-preserving kernels rely on:
// at most parts ranges, each non-empty, contiguous and in order, whose
// union is exactly [0, n).
func TestRanges(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, parts := range []int{1, 2, 3, 100} {
			t.Run(fmt.Sprintf("n=%d/parts=%d", n, parts), func(t *testing.T) {
				rs := parmeta.Ranges(n, parts)
				if len(rs) > parts {
					t.Fatalf("%d ranges, want at most %d", len(rs), parts)
				}
				if n > 0 && len(rs) == 0 {
					t.Fatal("no ranges over a non-empty interval")
				}
				next := 0
				for i, r := range rs {
					if r.Lo != next {
						t.Fatalf("range %d = %+v starts at %d, want %d", i, r, r.Lo, next)
					}
					if r.Len() <= 0 {
						t.Fatalf("range %d = %+v is empty", i, r)
					}
					next = r.Hi
				}
				if next != n {
					t.Fatalf("ranges cover [0, %d), want [0, %d)", next, n)
				}
			})
		}
	}
}

// TestForEach checks that every index is visited exactly once, on one
// worker, on fewer workers than indices and on more.
func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				parmeta.ForEach(n, workers, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if c := hits[i].Load(); c != 1 {
						t.Fatalf("index %d visited %d times, want 1", i, c)
					}
				}
			})
		}
	}
}
