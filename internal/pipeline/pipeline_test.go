package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// worlds returns the differential workloads: a clean–clean two-KB
// world and a dirty single-KB world with duplicates — the two ER
// settings of the paper, which exercise the cross-KB comparison filter
// and the partition skew differently.
func worlds(t testing.TB) map[string]*kb.Collection {
	t.Helper()
	srcs := make(map[string]*kb.Collection)
	for name, cfg := range map[string]datagen.Config{
		"cleanclean": datagen.TwoKBs(2016, 220, datagen.Center(), datagen.Center()),
		"dirty":      datagen.DirtyKB(2016, 220, 3),
	} {
		w, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = w.Collection
	}
	return srcs
}

// tokenizeCombos are the option combinations the differential tests
// sweep: the pipeline default plus variations flipping each lever that
// changes the token stream shape.
func tokenizeCombos() map[string]tokenize.Options {
	plain := tokenize.Options{MinLength: 1}
	noCamel := tokenize.Default()
	noCamel.SplitCamelCase = false
	keepStops := tokenize.Default()
	keepStops.DropStopWords = false
	shortTokens := tokenize.Default()
	shortTokens.MinLength = 1
	shortTokens.MaxLength = 6
	return map[string]tokenize.Options{
		"default":     tokenize.Default(),
		"plain":       plain,
		"noCamel":     noCamel,
		"keepStops":   keepStops,
		"shortTokens": shortTokens,
	}
}

// workerCounts are the engine widths the differential tests sweep; 0
// is Sequential, the zero value.
var workerCounts = []int{0, 1, 2, 4, 8}

// mode names a worker count in subtest labels: "sequential" runs both
// kernels inline, "shared" fans them out.
func mode(workers int) string {
	if workers <= 1 {
		return "sequential"
	}
	return "shared"
}

func sameCollection(t *testing.T, label string, want, got *blocking.Collection) {
	t.Helper()
	if got.CleanClean != want.CleanClean {
		t.Fatalf("%s: CleanClean=%v, want %v", label, got.CleanClean, want.CleanClean)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d blocks, want %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		w, g := &want.Blocks[i], &got.Blocks[i]
		if g.Key != w.Key {
			t.Fatalf("%s: block %d key %q, want %q", label, i, g.Key, w.Key)
		}
		if len(g.Entities) != len(w.Entities) {
			t.Fatalf("%s: block %d (%q): %d entities, want %d", label, i, w.Key, len(g.Entities), len(w.Entities))
		}
		for j := range w.Entities {
			if g.Entities[j] != w.Entities[j] {
				t.Fatalf("%s: block %d (%q) entity %d = %d, want %d", label, i, w.Key, j, g.Entities[j], w.Entities[j])
			}
		}
	}
}

// sameEdges compares pruned edge lists, weights bit for bit.
func sameEdges(t *testing.T, want, got []metablocking.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d pruned edges, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; g != w {
			t.Fatalf("edge %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestTokenBlockingMatchesSequential asserts that the engine's token
// blocking produces the reference blocking.TokenBlocking's collection — same
// blocks, same order, same entity lists — for every tokenize option
// combination and worker count, on both ER settings.
func TestTokenBlockingMatchesSequential(t *testing.T) {
	for world, src := range worlds(t) {
		for optName, opts := range tokenizeCombos() {
			want := blocking.TokenBlocking(src, opts)
			for _, workers := range workerCounts {
				label := fmt.Sprintf("%s/%s/workers=%d", world, optName, workers)
				t.Run(label, func(t *testing.T) {
					got, err := Shared{Workers: workers}.TokenBlocking(src, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameCollection(t, label, want, got)
				})
			}
		}
	}
}

// TestRunMatchesSequential drives the full front-end — blocking,
// cleaning, graph build, pruning — at every worker count and asserts
// outputs bit-identical to the blocking and metablocking packages' own
// functions end to end: the cleaned collection and the pruned edge
// list, float weights included.
func TestRunMatchesSequential(t *testing.T) {
	for world, src := range worlds(t) {
		for _, cse := range []struct {
			scheme  metablocking.Scheme
			pruning metablocking.Pruning
		}{
			{metablocking.ECBS, metablocking.WNP},
			{metablocking.ARCS, metablocking.CEP},
			{metablocking.JS, metablocking.CNP},
			{metablocking.CBS, metablocking.WEP},
		} {
			opt := Options{
				Tokenize:    tokenize.Default(),
				FilterRatio: 0.8,
				Scheme:      cse.scheme,
				Pruning:     cse.pruning,
			}
			cleaned := blocking.TokenBlocking(src, opt.Tokenize).Purge(0).Filter(opt.FilterRatio)
			wantEdges := metablocking.Build(cleaned, cse.scheme, 1).Prune(cse.pruning, opt.pruneOptions(cleaned.Assignments()))
			for _, workers := range workerCounts {
				label := fmt.Sprintf("%s/%v/%v/%s-%d", world, cse.scheme, cse.pruning, mode(workers), workers)
				t.Run(label, func(t *testing.T) {
					got, err := Run(Shared{Workers: workers}, src, opt)
					if err != nil {
						t.Fatal(err)
					}
					sameCollection(t, label, cleaned, got.Blocks)
					sameEdges(t, wantEdges, got.Edges)
				})
			}
		}
	}
}

// TestRunSkipsOptionalStages checks the purge/filter gating: negative
// PurgeMaxBlockSize skips purging, non-positive FilterRatio skips
// filtering — on every engine, identically.
func TestRunSkipsOptionalStages(t *testing.T) {
	src := worlds(t)["cleanclean"]
	opt := Options{
		Tokenize:          tokenize.Default(),
		PurgeMaxBlockSize: -1,
		FilterRatio:       -1,
		Scheme:            metablocking.ECBS,
		Pruning:           metablocking.WNP,
	}
	want := blocking.TokenBlocking(src, opt.Tokenize)
	for _, workers := range []int{1, 4} {
		fe, err := Run(Shared{Workers: workers}, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameCollection(t, fmt.Sprintf("workers=%d", workers), want, fe.Blocks)
	}
}

// TestSelect checks the worker count → engine mapping — one engine,
// counts taken literally, ≤ 0 resolved to one worker per CPU — and
// that the retired mapReduce selector is refused.
func TestSelect(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{1, 1}, {4, 4}, {0, runtime.GOMAXPROCS(0)}, {-2, runtime.GOMAXPROCS(0)},
	} {
		if got := Select(tc.workers, false); got != (Shared{Workers: tc.want}) {
			t.Errorf("Select(%d, false) = %#v, want Shared{Workers: %d}", tc.workers, got, tc.want)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Select(4, true) did not panic")
			}
		}()
		Select(4, true)
	}()
}

// TestEmptyAndDegenerate covers empty sources and collections with no
// blocks on the shared engine.
func TestEmptyAndDegenerate(t *testing.T) {
	eng := Shared{Workers: 4}
	empty := kb.NewCollection()
	col, err := eng.TokenBlocking(empty, tokenize.Default())
	if err != nil {
		t.Fatal(err)
	}
	if col.NumBlocks() != 0 {
		t.Fatalf("empty source produced %d blocks", col.NumBlocks())
	}
	if col, err = eng.Purge(col, 0); err != nil || col.NumBlocks() != 0 {
		t.Fatalf("purge of empty collection: blocks=%d err=%v", col.NumBlocks(), err)
	}
	if col, err = eng.Filter(col, 0.8); err != nil || col.NumBlocks() != 0 {
		t.Fatalf("filter of empty collection: blocks=%d err=%v", col.NumBlocks(), err)
	}
}

// TestStressDeterminism reruns the shared front-end with an
// oversubscribed worker count; under -race this is the concurrency
// stress, and every repetition must reproduce the reference bits.
func TestStressDeterminism(t *testing.T) {
	src := worlds(t)["dirty"]
	opt := Options{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
		Scheme:      metablocking.EJS,
		Pruning:     metablocking.CNP,
	}
	want, err := Run(Sequential{}, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	reps := 6
	if testing.Short() {
		reps = 2
	}
	for rep := 0; rep < reps; rep++ {
		got, err := Run(Shared{Workers: 7}, src, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameCollection(t, fmt.Sprintf("rep %d", rep), want.Blocks, got.Blocks)
		if len(got.Edges) != len(want.Edges) {
			t.Fatalf("rep %d: %d edges, want %d", rep, len(got.Edges), len(want.Edges))
		}
		for i := range want.Edges {
			if got.Edges[i] != want.Edges[i] {
				t.Fatalf("rep %d: edge %d = %+v, want %+v", rep, i, got.Edges[i], want.Edges[i])
			}
		}
	}
}
