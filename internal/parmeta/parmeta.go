// Package parmeta holds the shared-memory parallelism helpers of the
// front end: the worker-count option (Workers) and the index
// partitioning the parallel kernels shard their work with (Range,
// Ranges, ForEach). The front-end engine itself lives in
// internal/pipeline, its tokenizer in kb.Collection.WarmTokens, its
// graph kernel in metablocking.BuildUnweighted and its entity index in
// blocking.Collection.EntityCSR; the matching pre-pass in internal/core
// shards with it too. This package imports only the standard library
// so that all of them can use it.
package parmeta

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: values ≤ 0 mean one worker
// per available CPU (GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// ForEach runs fn(i) for every i in [0, n), distributing indices
// dynamically over workers goroutines (a shared atomic counter hands
// out the next index). Use it when per-index cost is uneven — skewed
// partitions, merge trees — and static Ranges sharding would leave
// workers idle. fn must be safe to call concurrently for distinct i.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Ranges splits [0, n) into at most parts contiguous, near-equal
// ranges, omitting empty ones. Contiguity is what makes range sharding
// order-preserving: concatenating per-range results in range order
// replays the sequential iteration order. The tokenizer
// (kb.Collection.WarmTokens), the entity index
// (blocking.Collection.EntityCSR), the blocking-graph kernel and the
// matching pre-pass shard with it.
func Ranges(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	for i := 0; i < parts; i++ {
		r := Range{Lo: i * n / parts, Hi: (i + 1) * n / parts}
		if r.Lo < r.Hi {
			out = append(out, r)
		}
	}
	return out
}
