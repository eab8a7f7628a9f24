package parmeta_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
	"repro/internal/pipeline"
	"repro/internal/tokenize"
)

// The differentials below pin the shared engine's graph stages —
// pipeline.Shared's Build (the chunked kernel, then the reference
// weighting) and Prune — to the sequential reference, for every scheme,
// pruning algorithm, reciprocal setting and worker count.

// worlds returns the differential workloads: a clean–clean two-KB
// world and a dirty single-KB world with duplicates — the two ER
// settings of the paper, which exercise the cross-KB comparison filter
// and the skew of the id-chunk schedule differently.
func worlds(t testing.TB) map[string]*blocking.Collection {
	t.Helper()
	cols := make(map[string]*blocking.Collection)
	for name, cfg := range map[string]datagen.Config{
		"cleanclean": datagen.TwoKBs(2016, 220, datagen.Center(), datagen.Center()),
		"dirty":      datagen.DirtyKB(2016, 220, 3),
	} {
		w, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols[name] = blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	}
	return cols
}

// build is the shared engine's graph build on the given workers.
func build(t testing.TB, col *blocking.Collection, scheme metablocking.Scheme, workers int) *metablocking.Graph {
	t.Helper()
	g, err := pipeline.Shared{Workers: workers}.Build(col, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// prune is the shared engine's pruning on the given workers.
func prune(t testing.TB, g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions, workers int) []metablocking.Edge {
	t.Helper()
	kept, err := pipeline.Shared{Workers: workers}.Prune(g, alg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return kept
}

func sameGraph(t *testing.T, want, got *metablocking.Graph) {
	t.Helper()
	if got.NumNodes != want.NumNodes {
		t.Fatalf("NumNodes=%d, want %d", got.NumNodes, want.NumNodes)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges=%d, want %d", got.NumEdges(), want.NumEdges())
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, got.Edges[i], want.Edges[i])
		}
	}
}

func sameEdges(t *testing.T, label string, want, got []metablocking.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBuildMatchesSequential asserts bit-identical graphs — edges,
// order, and float weights — for every scheme and worker count, on the
// differential worlds, on a collection where most ids sit in no block,
// on a two-block collection with more workers than chunks, and on one
// with no block at all. Shared.Build is the chunked kernel then the
// weighting, so every scheme's row also re-weighs a chunk-built graph.
func TestBuildMatchesSequential(t *testing.T) {
	cols := worlds(t)
	cc := cols["cleanclean"]
	sparse := &blocking.Collection{Source: cc.Source, CleanClean: cc.CleanClean}
	for bi := 0; bi < len(cc.Blocks); bi += 4 {
		sparse.Blocks = append(sparse.Blocks, cc.Blocks[bi])
	}
	isolated := 0
	start, _ := sparse.EntityCSR(1)
	for id := 0; id < cc.Source.Len(); id++ {
		if start[id+1] == start[id] {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("sparse collection has no isolated ids")
	}
	cols["isolated"] = sparse
	workerSets := map[string][]int{"tiny": {16, 64}}
	cols["tiny"] = &blocking.Collection{Blocks: cc.Blocks[:2], Source: cc.Source, CleanClean: cc.CleanClean}
	cols["empty"] = &blocking.Collection{Source: cc.Source, CleanClean: cc.CleanClean}
	for name, col := range cols {
		workers := workerSets[name]
		if workers == nil {
			workers = []int{2, 3, 4, 8}
		}
		for _, scheme := range metablocking.Schemes() {
			want := metablocking.Build(col, scheme)
			for _, w := range workers {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", name, scheme, w), func(t *testing.T) {
					sameGraph(t, want, build(t, col, scheme, w))
				})
			}
		}
	}
}

// TestPruneMatchesSequential covers every scheme × pruning ×
// reciprocal combination: the shared engine must retain exactly the
// sequential edge set, in the same order, with the same weights.
func TestPruneMatchesSequential(t *testing.T) {
	for name, col := range worlds(t) {
		opts := metablocking.PruneOptions{Assignments: col.Assignments()}
		for _, scheme := range metablocking.Schemes() {
			seq := metablocking.Build(col, scheme)
			par := build(t, col, scheme, 4)
			for _, alg := range metablocking.Prunings() {
				for _, reciprocal := range []bool{false, true} {
					o := opts
					o.Reciprocal = reciprocal
					want := seq.Prune(alg, o)
					for _, workers := range []int{2, 4, 7} {
						label := fmt.Sprintf("%s/%v/%v/reciprocal=%v/workers=%d",
							name, scheme, alg, reciprocal, workers)
						t.Run(label, func(t *testing.T) {
							sameEdges(t, label, want, prune(t, par, alg, o, workers))
						})
					}
				}
			}
		}
	}
}

func TestWorkersOption(t *testing.T) {
	if got := parmeta.Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0)=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := parmeta.Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3)=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := parmeta.Workers(5); got != 5 {
		t.Errorf("Workers(5)=%d, want 5", got)
	}
}
