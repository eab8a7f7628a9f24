package parmeta

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// worlds returns the differential workloads: a clean–clean two-KB
// world and a dirty single-KB world with duplicates — the two ER
// settings of the paper, which exercise the cross-KB comparison filter
// and the skew of the entity-range partition differently.
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
// and on a two-block collection with more workers than chunks.
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
	for name, col := range cols {
		workers := workerSets[name]
		if workers == nil {
			workers = []int{2, 3, 4, 8}
		}
		for _, scheme := range metablocking.Schemes() {
			want := metablocking.Build(col, scheme)
			for _, w := range workers {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", name, scheme, w), func(t *testing.T) {
					sameGraph(t, want, Build(col, scheme, w))
				})
			}
		}
	}
}

// TestPruneMatchesSequential covers every scheme × pruning ×
// reciprocal combination: the parallel engine must retain exactly the
// sequential edge set, in the same order, with the same weights.
func TestPruneMatchesSequential(t *testing.T) {
	for name, col := range worlds(t) {
		opts := metablocking.PruneOptions{Assignments: col.Assignments()}
		for _, scheme := range metablocking.Schemes() {
			seq := metablocking.Build(col, scheme)
			par := Build(col, scheme, 4)
			for _, alg := range metablocking.Prunings() {
				for _, reciprocal := range []bool{false, true} {
					o := opts
					o.Reciprocal = reciprocal
					want := seq.Prune(alg, o)
					for _, workers := range []int{2, 4, 7} {
						label := fmt.Sprintf("%s/%v/%v/reciprocal=%v/workers=%d",
							name, scheme, alg, reciprocal, workers)
						t.Run(label, func(t *testing.T) {
							sameEdges(t, label, want, Prune(par, alg, o, workers))
						})
					}
				}
			}
		}
	}
}

// TestPruneOptionOverrides checks the explicit K / KPerNode budgets
// flow through the parallel engine identically.
func TestPruneOptionOverrides(t *testing.T) {
	col := worlds(t)["cleanclean"]
	g := Build(col, metablocking.ECBS, 4)
	seq := metablocking.Build(col, metablocking.ECBS)
	for _, opts := range []metablocking.PruneOptions{
		{K: 50},
		{K: 1},
		{KPerNode: 2},
		{KPerNode: 1, Reciprocal: true},
	} {
		for alg, o := range map[metablocking.Pruning]metablocking.PruneOptions{
			metablocking.CEP: opts,
			metablocking.CNP: opts,
		} {
			want := seq.Prune(alg, o)
			got := Prune(g, alg, o, 4)
			sameEdges(t, fmt.Sprintf("%v/%+v", alg, o), want, got)
		}
	}
}

// TestReweighMatchesSequential re-weighs one graph through every
// scheme in place, comparing against a sequentially re-weighed twin.
func TestReweighMatchesSequential(t *testing.T) {
	col := worlds(t)["cleanclean"]
	seq := metablocking.Build(col, metablocking.CBS)
	par := Build(col, metablocking.CBS, 4)
	for _, scheme := range []metablocking.Scheme{
		metablocking.ARCS, metablocking.EJS, metablocking.JS,
		metablocking.ECBS, metablocking.CBS,
	} {
		seq.Reweigh(scheme)
		Reweigh(par, scheme, 4)
		sameGraph(t, seq, par)
	}
}

// TestConcurrentPrunes runs several pruning algorithms on the same
// graph at once: Prune only reads the graph, so concurrent calls must
// be race-free and each still sequential-identical.
func TestConcurrentPrunes(t *testing.T) {
	col := worlds(t)["cleanclean"]
	g := Build(col, metablocking.ECBS, 4)
	seq := metablocking.Build(col, metablocking.ECBS)
	opts := metablocking.PruneOptions{Assignments: col.Assignments()}
	var wg sync.WaitGroup
	for _, alg := range metablocking.Prunings() {
		for rep := 0; rep < 3; rep++ {
			wg.Add(1)
			go func(alg metablocking.Pruning) {
				defer wg.Done()
				want := seq.Prune(alg, opts)
				got := Prune(g, alg, opts, 4)
				if len(got) != len(want) {
					t.Errorf("%v: %d edges, want %d", alg, len(got), len(want))
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%v: edge %d = %+v, want %+v", alg, i, got[i], want[i])
						return
					}
				}
			}(alg)
		}
	}
	wg.Wait()
}

// TestStressDeterminism hammers the full engine repeatedly with an
// oversubscribed worker count; under -race this is the concurrency
// stress test, and every repetition must reproduce the same result.
func TestStressDeterminism(t *testing.T) {
	col := worlds(t)["dirty"]
	opts := metablocking.PruneOptions{Assignments: col.Assignments()}
	ref := Prune(Build(col, metablocking.EJS, 6), metablocking.CNP, opts, 6)
	reps := 8
	if testing.Short() {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		got := Prune(Build(col, metablocking.EJS, 6), metablocking.CNP, opts, 6)
		sameEdges(t, fmt.Sprintf("rep %d", rep), ref, got)
	}
}

func TestWorkersOption(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0)=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3)=%d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5)=%d, want 5", got)
	}
}

// TestEmptyAndTiny covers degenerate inputs: no blocks, and fewer
// blocks than workers.
func TestEmptyAndTiny(t *testing.T) {
	empty := &blocking.Collection{Source: worlds(t)["cleanclean"].Source}
	g := Build(empty, metablocking.ECBS, 4)
	if g.NumEdges() != 0 {
		t.Errorf("empty collection produced %d edges", g.NumEdges())
	}
	if kept := Prune(g, metablocking.WEP, metablocking.PruneOptions{}, 4); len(kept) != 0 {
		t.Errorf("empty graph pruned to %d edges", len(kept))
	}

	col := worlds(t)["cleanclean"]
	tiny := &blocking.Collection{
		Blocks:     col.Blocks[:2],
		Source:     col.Source,
		CleanClean: col.CleanClean,
	}
	want := metablocking.Build(tiny, metablocking.JS)
	sameGraph(t, want, Build(tiny, metablocking.JS, 16))
}
