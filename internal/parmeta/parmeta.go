// Package parmeta resolves the worker-count option of the parallel
// pipeline. The shared engine itself lives in internal/pipeline and its
// graph kernel in metablocking.BuildUnweighted; Workers stays in this
// package only because the benchmark module (benchmark/layers.go)
// imports it.
package parmeta

import "runtime"

// Workers resolves a worker-count option: values ≤ 0 mean one worker
// per available CPU (GOMAXPROCS), anything else is taken literally.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
