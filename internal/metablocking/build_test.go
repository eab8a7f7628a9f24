package metablocking

import (
	"fmt"
	"math"
	"runtime"
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
// chunk, one graph segment each — and asserts the graph is still
// bit-identical to the one-worker build for every scheme and worker
// count: edges, their order and weights, and what Lookup finds for
// each pair. "tiny" runs on 16 and 64 workers, more than it has chunks.
func TestChunkedBuildMatchesSequential(t *testing.T) {
	workerSets := map[string][]int{"tiny": {16, 64}}
	for _, budget := range []int{1, 7, 64, 1024} {
		for name, col := range chunkWorlds(t) {
			counts := workerSets[name]
			if counts == nil {
				counts = []int{2, 5}
			}
			for _, scheme := range []Scheme{ARCS, ECBS, EJS} {
				want := edgesOf(Build(col, scheme, 1))
				if (name == "empty") != (len(want) == 0) {
					t.Fatalf("%s: %d edges", name, len(want))
				}
				for _, workers := range counts {
					t.Run(fmt.Sprintf("budget=%d/%s/%v/workers=%d", budget, name, scheme, workers), func(t *testing.T) {
						got := build(col, scheme, workers, budget)
						if got.NumNodes != col.Source.Len() || got.NumEdges() != len(want) {
							t.Fatalf("%d nodes, %d edges; want %d, %d",
								got.NumNodes, got.NumEdges(), col.Source.Len(), len(want))
						}
						sameEdges(t, "chunked", edgesOf(got), want)
						for i, e := range want {
							idx, w, ok := got.Lookup(e.A, e.B)
							if !ok || idx != i || math.Float64bits(w) != math.Float64bits(e.Weight) {
								t.Fatalf("Lookup(%d, %d) = %d, %v, %v; want %d, %v", e.A, e.B, idx, w, ok, i, e.Weight)
							}
							if _, _, ok := got.Lookup(e.B, e.A); ok {
								t.Fatalf("Lookup(%d, %d) found an edge filed under its larger endpoint", e.B, e.A)
							}
						}
					})
				}
			}
		}
	}
}

// TestGraphBytesPerEdge bounds what a built graph holds on to. After a
// GC with the graph kept alive, the heap's growth over the build and
// Footprint must each stay within 16 bytes per edge plus 32 per node:
// the 12-byte edge with room for append slack, well below a graph that
// keeps per-edge evidence beside its weights.
func TestGraphBytesPerEdge(t *testing.T) {
	w, err := datagen.Generate(datagen.LODCloud(5, 800))
	if err != nil {
		t.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		g := Build(col, ECBS, workers)
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		limit := int64(16*g.NumEdges() + 32*g.NumNodes)
		t.Logf("workers=%d: %d edges, %d nodes: heap +%d B, footprint %d B, limit %d B",
			workers, g.NumEdges(), g.NumNodes, grown, g.Footprint(), limit)
		if g.NumEdges() < 50000 {
			t.Fatalf("%d edges: the world is too small to measure", g.NumEdges())
		}
		if grown > limit || int64(g.Footprint()) > limit {
			t.Errorf("workers=%d: heap grew %d B and footprint is %d B, limit %d B", workers, grown, g.Footprint(), limit)
		}
		runtime.KeepAlive(g)
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

// TestFrontEndAllocations bounds what the build and the prunes allocate,
// read from runtime.MemStats.TotalAlloc, which no timing or scheduling
// moves: the build at most 1.5 times the graph it keeps, a WNP prune at
// most 60 bytes per edge it returns (the 24-byte Edge and the
// placement's scratch), and a CEP prune the same plus one byte per
// graph edge for its verdicts.
func TestFrontEndAllocations(t *testing.T) {
	w, err := datagen.Generate(datagen.LODCloud(5, 800))
	if err != nil {
		t.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	opts := PruneOptions{Assignments: col.Assignments()}
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, workers := range []int{1, 2, 4} {
		var g *Graph
		built := allocated(func() { g = Build(col, ECBS, workers) })
		var wnp, cep []Edge
		wnpBytes := allocated(func() { wnp = g.Prune(WNP, opts) })
		cepBytes := allocated(func() { cep = g.Prune(CEP, opts) })
		t.Logf("workers=%d: %d edges, footprint %d B; Build %d B (%.2f×); WNP %d B for %d kept (%.1f B/kept); CEP %d B for %d kept",
			workers, g.NumEdges(), g.Footprint(), built, float64(built)/float64(g.Footprint()),
			wnpBytes, len(wnp), float64(wnpBytes)/float64(len(wnp)), cepBytes, len(cep))
		if limit := int64(g.Footprint()) * 3 / 2; built > limit {
			t.Errorf("workers=%d: Build allocated %d B, limit %d B (1.5 × footprint)", workers, built, limit)
		}
		if limit := int64(60 * len(wnp)); wnpBytes > limit {
			t.Errorf("workers=%d: WNP allocated %d B for %d kept edges, limit %d B", workers, wnpBytes, len(wnp), limit)
		}
		if limit := int64(g.NumEdges() + 60*len(cep)); cepBytes > limit {
			t.Errorf("workers=%d: CEP allocated %d B for %d kept of %d edges, limit %d B", workers, cepBytes, len(cep), g.NumEdges(), limit)
		}
	}
}
