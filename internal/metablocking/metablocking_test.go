package metablocking

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/tokenize"
)

// fixture: KB a = {0:"x y", 1:"y z"}, KB b = {2:"x y", 3:"w z"}.
// Blocks: x:{0,2} y:{0,1,2} z:{1,3} w:{-} (singleton dropped).
func fixture(t *testing.T) *blocking.Collection {
	t.Helper()
	c := kb.NewCollection()
	c.Add(&kb.Description{URI: "a0", KB: "a", Attrs: []kb.Attribute{{Predicate: "p", Value: "xx yy"}}})
	c.Add(&kb.Description{URI: "a1", KB: "a", Attrs: []kb.Attribute{{Predicate: "p", Value: "yy zz"}}})
	c.Add(&kb.Description{URI: "b2", KB: "b", Attrs: []kb.Attribute{{Predicate: "p", Value: "xx yy"}}})
	c.Add(&kb.Description{URI: "b3", KB: "b", Attrs: []kb.Attribute{{Predicate: "p", Value: "ww zz"}}})
	return blocking.TokenBlocking(c, tokenize.Default())
}

// edgesOf returns g's edges in (A, B) order.
func edgesOf(g *Graph) []Edge { return slices.Collect(g.Edges()) }

func edgeMap(es []Edge) map[[2]int]float64 {
	m := make(map[[2]int]float64, len(es))
	for _, e := range es {
		m[[2]int{e.A, e.B}] = e.Weight
	}
	return m
}

func TestBuildCBS(t *testing.T) {
	g := Build(fixture(t), CBS, 1)
	// Candidate cross-KB pairs: (0,2) via xx+yy, (0,3) none... check:
	// blocks: xx:{0,2}, yy:{0,1,2}, zz:{1,3}. Cross-KB pairs: (0,2) twice,
	// (1,2) once, (1,3) once.
	em := edgeMap(edgesOf(g))
	if len(em) != 3 {
		t.Fatalf("edges=%v", em)
	}
	if em[[2]int{0, 2}] != 2 || em[[2]int{1, 2}] != 1 || em[[2]int{1, 3}] != 1 {
		t.Errorf("CBS weights wrong: %v", em)
	}
}

func TestWeightingSchemes(t *testing.T) {
	col := fixture(t)
	em := edgeMap(edgesOf(Build(col, JS, 1)))
	// |B0|=2 (xx,yy), |B2|=2, common=2 → JS = 2/(2+2-2) = 1.
	if math.Abs(em[[2]int{0, 2}]-1) > 1e-9 {
		t.Errorf("JS(0,2)=%v, want 1", em[[2]int{0, 2}])
	}
	// |B1|=2 (yy,zz), |B3|=1 (zz), common=1 → JS = 1/2.
	if math.Abs(em[[2]int{1, 3}]-0.5) > 1e-9 {
		t.Errorf("JS(1,3)=%v, want 0.5", em[[2]int{1, 3}])
	}

	em = edgeMap(edgesOf(Build(col, ARCS, 1)))
	// xx has 1 comparison, yy has 2 cross-KB comparisons, zz has 1.
	// ARCS(0,2) = 1/1 + 1/2 = 1.5; ARCS(1,3) = 1/1 = 1.
	if math.Abs(em[[2]int{0, 2}]-1.5) > 1e-9 {
		t.Errorf("ARCS(0,2)=%v, want 1.5", em[[2]int{0, 2}])
	}
	if math.Abs(em[[2]int{1, 3}]-1.0) > 1e-9 {
		t.Errorf("ARCS(1,3)=%v, want 1", em[[2]int{1, 3}])
	}
}

func TestSchemeOrdering(t *testing.T) {
	// On every scheme, the "obviously right" pair (0,2) — two shared
	// rare tokens — must outweigh (1,2) — one shared frequent token.
	col := fixture(t)
	for _, s := range Schemes() {
		em := edgeMap(edgesOf(Build(col, s, 1)))
		if em[[2]int{0, 2}] < em[[2]int{1, 2}] {
			t.Errorf("%v: weight(0,2)=%v < weight(1,2)=%v", s, em[[2]int{0, 2}], em[[2]int{1, 2}])
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if CBS.String() != "CBS" || ECBS.String() != "ECBS" || JS.String() != "JS" ||
		EJS.String() != "EJS" || ARCS.String() != "ARCS" {
		t.Error("scheme names wrong")
	}
	if WEP.String() != "WEP" || CEP.String() != "CEP" || WNP.String() != "WNP" || CNP.String() != "CNP" {
		t.Error("pruning names wrong")
	}
	if Scheme(99).String() == "" || Pruning(99).String() == "" {
		t.Error("unknown enums should still render")
	}
}

func TestWEP(t *testing.T) {
	g := Build(fixture(t), CBS, 1)
	kept := g.Prune(WEP, PruneOptions{})
	// Weights 2,1,1; mean = 4/3; only (0,2) survives.
	if len(kept) != 1 || kept[0].A != 0 || kept[0].B != 2 {
		t.Errorf("WEP kept %v", kept)
	}
}

func TestCEP(t *testing.T) {
	g := Build(fixture(t), CBS, 1)
	kept := g.Prune(CEP, PruneOptions{K: 2})
	if len(kept) != 2 {
		t.Fatalf("CEP(K=2) kept %d edges", len(kept))
	}
	if kept[0].Weight < kept[1].Weight {
		t.Error("edges not sorted by descending weight")
	}
	if kept[0].A != 0 || kept[0].B != 2 {
		t.Errorf("heaviest edge wrong: %v", kept[0])
	}
	// Default budget from assignments.
	col := fixture(t)
	kept = g.Prune(CEP, PruneOptions{Assignments: col.Assignments()})
	if len(kept) == 0 || len(kept) > g.NumEdges() {
		t.Errorf("CEP default kept %d", len(kept))
	}
}

// samePairs checks that got retains exactly the pairs want.
func samePairs(t *testing.T, label string, got []Edge, want ...[2]int) {
	t.Helper()
	em := edgeMap(got)
	ok := len(got) == len(want)
	for _, p := range want {
		_, in := em[p]
		ok = ok && in
	}
	if !ok {
		t.Errorf("%s kept %v, want %v", label, got, want)
	}
}

func TestWNPAndReciprocal(t *testing.T) {
	// CBS weights (0,2)=2, (1,2)=1, (1,3)=1. Neighborhood means: node 0
	// 2, node 1 1, node 2 1.5, node 3 1. Edge (1,2) clears node 1's
	// mean but not node 2's: the redefined variant keeps it, the
	// reciprocal one drops it. The other two clear both endpoints.
	g := Build(fixture(t), CBS, 1)
	samePairs(t, "WNP", g.Prune(WNP, PruneOptions{}), [2]int{0, 2}, [2]int{1, 2}, [2]int{1, 3})
	samePairs(t, "reciprocal WNP", g.Prune(WNP, PruneOptions{Reciprocal: true}), [2]int{0, 2}, [2]int{1, 3})
}

func TestCNP(t *testing.T) {
	g := Build(fixture(t), CBS, 1)
	// With k = 1 every node keeps its single heaviest edge, the lower
	// edge index winning a tie: node 0 and node 2 keep (0,2), node 1
	// keeps (1,2) over the equal-weight (1,3), node 3 keeps (1,3). So
	// (1,2) and (1,3) are each kept by one endpoint only.
	kept := g.Prune(CNP, PruneOptions{KPerNode: 1})
	samePairs(t, "CNP", kept, [2]int{0, 2}, [2]int{1, 2}, [2]int{1, 3})
	if top := kept[0]; top.A != 0 || top.B != 2 {
		t.Errorf("CNP top edge %v", top)
	}
	samePairs(t, "reciprocal CNP", g.Prune(CNP, PruneOptions{KPerNode: 1, Reciprocal: true}), [2]int{0, 2})
	// KPerNode large → everything survives.
	all := g.Prune(CNP, PruneOptions{KPerNode: 100})
	if len(all) != g.NumEdges() {
		t.Errorf("CNP with huge k kept %d of %d", len(all), g.NumEdges())
	}
}

func TestPruneEmptyGraph(t *testing.T) {
	g := &Graph{}
	for _, alg := range Prunings() {
		if kept := g.Prune(alg, PruneOptions{}); len(kept) != 0 {
			t.Errorf("%v on empty graph kept %d", alg, len(kept))
		}
	}
}

// Properties over generated workloads: pruning output is a subset of
// the graph's edges, contains no duplicates, is sorted by weight, and
// WEP/WNP never drop the globally heaviest edge.
func TestPruningInvariants(t *testing.T) {
	f := func(seed int64) bool {
		w, err := datagen.Generate(datagen.TwoKBs(seed, 50, datagen.Center(), datagen.Periphery()))
		if err != nil {
			return false
		}
		col := blocking.TokenBlocking(w.Collection, tokenize.Default())
		assignments := col.Assignments()
		for _, s := range Schemes() {
			g := Build(col, s, 1)
			if g.NumEdges() == 0 {
				continue
			}
			// Non-negative weights.
			maxW, maxIdx := -1.0, -1
			edges := edgesOf(g)
			for i, e := range edges {
				if e.Weight < 0 {
					return false
				}
				if e.Weight > maxW {
					maxW, maxIdx = e.Weight, i
				}
			}
			all := make(map[[2]int]bool, g.NumEdges())
			for _, e := range edges {
				all[[2]int{e.A, e.B}] = true
			}
			for _, alg := range Prunings() {
				kept := g.Prune(alg, PruneOptions{Assignments: assignments})
				seen := map[[2]int]bool{}
				for i, e := range kept {
					k := [2]int{e.A, e.B}
					if !all[k] || seen[k] {
						return false
					}
					seen[k] = true
					if i > 0 && kept[i-1].Weight < e.Weight {
						return false
					}
				}
				if alg == WEP || alg == WNP {
					if !seen[[2]int{edges[maxIdx].A, edges[maxIdx].B}] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Meta-blocking's purpose: retained comparisons shrink substantially
// while most ground-truth pairs that blocking found survive pruning.
func TestPruningKeepsMatches(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(77, 400, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := Build(col, ECBS, 1)
	kept := g.Prune(WNP, PruneOptions{})
	if len(kept) >= g.NumEdges() {
		t.Fatalf("WNP pruned nothing: %d of %d", len(kept), g.NumEdges())
	}
	matchesBefore, matchesAfter := 0, 0
	for e := range g.Edges() {
		if w.Truth.Match(e.A, e.B) {
			matchesBefore++
		}
	}
	for _, e := range kept {
		if w.Truth.Match(e.A, e.B) {
			matchesAfter++
		}
	}
	if matchesBefore == 0 {
		t.Fatal("blocking found no matches — workload broken")
	}
	ratio := float64(matchesAfter) / float64(matchesBefore)
	if ratio < 0.9 {
		t.Errorf("WNP kept only %.2f of matches (%d/%d)", ratio, matchesAfter, matchesBefore)
	}
}

// refGraph is a blocking graph as a plain edge list in (A, B) order,
// with its per-node degrees: the reference the graph tests compare
// Build and Prune with.
type refGraph struct {
	n, live int // nodes, live source descriptions
	edges   []Edge
	degree  []int32
}

// referenceGraph is the block-order reference of the blocking graph,
// independent of the kernel: a plain map keyed by pair, folding every
// block's pair occurrences in block order, then sorted into canonical
// (A, B) order and weighed under scheme by the scheme's formula.
func referenceGraph(col *blocking.Collection, scheme Scheme) *refGraph {
	type evidence struct {
		common int
		arcs   float64
	}
	n := col.Source.Len()
	g := &refGraph{n: n, live: col.Source.NumAlive(), degree: make([]int32, n)}
	blocks := make([]int32, n)
	acc := make(map[[2]int]*evidence)
	for _, b := range col.Blocks {
		for _, id := range b.Entities {
			blocks[id]++
		}
		cmp := b.Comparisons(col.Source, col.CleanClean)
		for x, a := range b.Entities {
			for _, c := range b.Entities[x+1:] {
				if col.CleanClean && !col.Source.CrossKB(a, c) {
					continue
				}
				ev := acc[[2]int{a, c}]
				if ev == nil {
					ev = &evidence{}
					acc[[2]int{a, c}] = ev
				}
				ev.common++
				ev.arcs += 1 / float64(cmp)
			}
		}
	}
	pairs := make([][2]int, 0, len(acc))
	for p := range acc {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		g.degree[p[0]]++
		g.degree[p[1]]++
	}
	nBlock, nEdges := float64(len(col.Blocks)), float64(len(pairs))
	for _, p := range pairs {
		ev := acc[p]
		cbs := float64(ev.common)
		ba, bb := float64(blocks[p[0]]), float64(blocks[p[1]])
		var w float64
		switch scheme {
		case CBS:
			w = cbs
		case ECBS:
			w = cbs * definitionLog(nBlock/ba) * definitionLog(nBlock/bb)
		case JS:
			w = cbs / (ba + bb - cbs)
		case EJS:
			da, db := float64(g.degree[p[0]]), float64(g.degree[p[1]])
			w = cbs / (ba + bb - cbs) * definitionLog(nEdges/da) * definitionLog(nEdges/db)
		case ARCS:
			w = ev.arcs
		}
		g.edges = append(g.edges, Edge{A: p[0], B: p[1], Weight: w})
	}
	return g
}

// definitionLog is the log factor of ECBS and EJS as defined: log x,
// clamped to 0 for ratios ≤ 1 so that weights stay non-negative.
func definitionLog(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log(x)
}

// interleavedTombstoned is the source shape streaming waves leave
// behind: two KBs whose descriptions arrived in alternating small
// batches (so KB membership interleaves across the id space), with
// every fifth id evicted.
func interleavedTombstoned(t *testing.T) *blocking.Collection {
	t.Helper()
	w, err := datagen.Generate(datagen.TwoKBs(5, 90, datagen.Center(), datagen.Periphery()))
	if err != nil {
		t.Fatal(err)
	}
	byKB := map[string][]*kb.Description{}
	var kbs []string
	for id := 0; id < w.Collection.Len(); id++ {
		d := w.Collection.Desc(id)
		if byKB[d.KB] == nil {
			kbs = append(kbs, d.KB)
		}
		byKB[d.KB] = append(byKB[d.KB], d)
	}
	c := kb.NewCollection()
	for lo := 0; ; lo += 4 {
		added := false
		for _, name := range kbs {
			ds := byKB[name]
			for i := lo; i < lo+4 && i < len(ds); i++ {
				c.Add(ds[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	for id := 0; id < c.Len(); id += 5 {
		c.Evict(id)
	}
	return blocking.TokenBlocking(c, tokenize.Default()).Purge(0).Filter(0.8)
}

// buildWorld is one named cleaned block collection of buildWorlds.
type buildWorld struct {
	name string
	col  *blocking.Collection
}

// buildWorlds returns the graph tests' inputs: the hand fixture, a
// clean–clean world, a dirty world, and a tombstoned source with
// interleaved KBs.
func buildWorlds(t *testing.T) []buildWorld {
	t.Helper()
	generated := func(cfg datagen.Config) *blocking.Collection {
		w, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	}
	return []buildWorld{
		{"fixture", fixture(t)},
		{"cleanclean", generated(datagen.TwoKBs(21, 120, datagen.Center(), datagen.Center()))},
		{"dirty", generated(datagen.DirtyKB(21, 120, 3))},
		{"interleaved-tombstoned", interleavedTombstoned(t)},
	}
}

// TestBuildMatchesBlockOrderReference pins the entity-centric kernel to
// the independent block-order reference: every edge with its weight
// compared by bits, every node's degree and the live count, for every
// scheme, on the hand fixture, a clean–clean world, a dirty world, and
// a tombstoned source with interleaved KBs. The evidence the graph no
// longer keeps is compared through the weights of the schemes that
// read it: CBS's is the common-block count, ARCS's the Σ 1/||b||.
func TestBuildMatchesBlockOrderReference(t *testing.T) {
	for _, tc := range buildWorlds(t) {
		for _, scheme := range Schemes() {
			want := referenceGraph(tc.col, scheme)
			got := Build(tc.col, scheme, 1)
			label := fmt.Sprintf("%s/%v", tc.name, scheme)
			if len(want.edges) == 0 {
				t.Fatalf("%s: reference graph is empty — input broken", label)
			}
			if got.NumNodes != want.n || got.LiveNodes() != want.live {
				t.Fatalf("%s: nodes/live %d/%d, want %d/%d", label,
					got.NumNodes, got.LiveNodes(), want.n, want.live)
			}
			sameEdges(t, label, edgesOf(got), want.edges)
			if !slices.Equal(got.degrees(), want.degree) {
				t.Fatalf("%s: degrees differ from the reference", label)
			}
		}
	}
}
