package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python 3.
	tests := []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two clamps to the range", []float64{1, 2}, 1, 1.5, 2},
		{"four", []float64{40, 10, 30, 20}, 12.5, 25, 37.5},
		{"five", []float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{"ten unsorted", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, tc := range tests {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("%s: quartiles = %v %v %v, want %v %v %v", tc.name, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("%s: median = %v, want %v", tc.name, m, tc.q2)
		}
	}
}

func TestSummarySpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || s.Median != 5.5 {
		t.Fatalf("summarize = %+v", s)
	}
	if got, want := s.spread(), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if (summary{}).spread() != 0 {
		t.Error("spread of a zero median must be 0, not NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	tests := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{0, 0.9, 0, false},
		{20, 0.5, 10, true},  // 10 beyond
		{19, 0.5, 10, false}, // 9 beyond
		{100, 0.9, 90, true}, // 10 beyond
		{99, 0.9, 90, false}, // 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{1000, 0.99, 990, true},
		{10, 0.99, 10, false},
	}
	for _, tc := range tests {
		v, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
	}
}
