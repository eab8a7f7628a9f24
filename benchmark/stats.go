package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: the median,
// the quartiles around it, and how many samples they rest on.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise a regression bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so a spread printed here is the spread the acceptance rule sees —
// except that a cut point never leaves the sample range, where Python
// extrapolates on three samples or fewer.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return min(max((s[j-1]*(4-delta)+s[j]*delta)/4, s[0]), s[n-1])
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond a percentile for it
// to be reported: fewer, and the figure is one outlier's position.
const tailMinBeyond = 10

// percentile returns the p-th percentile of xs (nearest rank, p in
// (0,1)); ok is false when fewer than tailMinBeyond samples lie beyond
// it, in which case the value must not be reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := min(max(int(math.Ceil(p*float64(n))), 1), n)
	return s[rank-1], n-rank >= tailMinBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
