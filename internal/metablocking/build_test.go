package metablocking

import (
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/tokenize"
)

// chunkWorlds returns cleaned collections for the two ER settings of
// the paper — a clean–clean two-KB world and a dirty single-KB world
// with duplicates, whose id-range chunks carry very different work —
// and three degenerate shapes cut from the clean–clean one: "isolated"
// (every fourth block, so most ids sit in no block), "tiny" (two
// blocks, fewer chunks than workers) and "empty" (no blocks).
func chunkWorlds(t *testing.T) map[string]*blocking.Collection {
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
	cc := cols["cleanclean"]
	sparse := &blocking.Collection{Source: cc.Source, CleanClean: cc.CleanClean}
	for bi := 0; bi < len(cc.Blocks); bi += 4 {
		sparse.Blocks = append(sparse.Blocks, cc.Blocks[bi])
	}
	start, _ := sparse.EntityCSR(1)
	isolated := 0
	for id := 0; id < cc.Source.Len(); id++ {
		if start[id+1] == start[id] {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("sparse collection has no isolated ids")
	}
	cols["isolated"] = sparse
	cols["tiny"] = &blocking.Collection{Blocks: cc.Blocks[:2], Source: cc.Source, CleanClean: cc.CleanClean}
	cols["empty"] = &blocking.Collection{Source: cc.Source, CleanClean: cc.CleanClean}
	return cols
}

// TestChunkedBuildMatchesSequential shrinks the chunk budget so the
// build cuts the id space into many small chunks — down to one id per
// chunk — and asserts the graph is still bit-identical to the
// one-worker build for every scheme and worker count: edges, weights,
// and each edge's evidence. "tiny" runs on 16 and 64 workers, more
// than it has chunks.
func TestChunkedBuildMatchesSequential(t *testing.T) {
	workerSets := map[string][]int{"tiny": {16, 64}}
	for _, budget := range []int{1, 7, 64, 1024} {
		for name, col := range chunkWorlds(t) {
			counts := workerSets[name]
			if counts == nil {
				counts = []int{2, 5}
			}
			for _, scheme := range []Scheme{ARCS, ECBS} {
				want := Build(col, scheme)
				if (name == "empty") != (len(want.Edges) == 0) {
					t.Fatalf("%s: %d edges", name, len(want.Edges))
				}
				for _, workers := range counts {
					t.Run(fmt.Sprintf("budget=%d/%s/%v/workers=%d", budget, name, scheme, workers), func(t *testing.T) {
						got := buildUnweighted(col, workers, budget)
						got.Reweigh(scheme)
						if got.NumNodes != want.NumNodes || len(got.Edges) != len(want.Edges) {
							t.Fatalf("%d nodes, %d edges; want %d, %d",
								got.NumNodes, len(got.Edges), want.NumNodes, len(want.Edges))
						}
						for i := range want.Edges {
							if got.Edges[i] != want.Edges[i] || got.common[i] != want.common[i] || got.arcs[i] != want.arcs[i] {
								t.Fatalf("edge %d = %+v (%d, %v), want %+v (%d, %v)", i,
									got.Edges[i], got.common[i], got.arcs[i], want.Edges[i], want.common[i], want.arcs[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestChunkIDsByWork checks the chunk planner: chunks are contiguous,
// cover every id, and respect the budget except for single heavy ids.
func TestChunkIDsByWork(t *testing.T) {
	work := []int{3, 3, 3, 10, 0, 0, 2, 5}
	chunks := chunkIDs(work, 6)
	lo := 0
	for _, r := range chunks {
		if r.Lo != lo {
			t.Fatalf("chunk %+v starts at %d, want %d", r, r.Lo, lo)
		}
		if r.Len() <= 0 {
			t.Fatalf("empty chunk %+v", r)
		}
		load := 0
		for id := r.Lo; id < r.Hi; id++ {
			load += work[id]
		}
		if load > 6 && r.Len() > 1 {
			t.Fatalf("chunk %+v holds %d work over budget", r, load)
		}
		lo = r.Hi
	}
	if lo != len(work) {
		t.Fatalf("chunks end at %d, want %d", lo, len(work))
	}
	if chunks := chunkIDs(nil, 6); chunks != nil {
		t.Fatalf("chunking no ids returned %+v", chunks)
	}
}
