package metablocking

import (
	"fmt"
	"math"
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

func edgeMap(es []Edge) map[[2]int]float64 {
	m := make(map[[2]int]float64, len(es))
	for _, e := range es {
		m[[2]int{e.A, e.B}] = e.Weight
	}
	return m
}

func TestBuildCBS(t *testing.T) {
	g := Build(fixture(t), CBS)
	// Candidate cross-KB pairs: (0,2) via xx+yy, (0,3) none... check:
	// blocks: xx:{0,2}, yy:{0,1,2}, zz:{1,3}. Cross-KB pairs: (0,2) twice,
	// (1,2) once, (1,3) once.
	em := edgeMap(g.Edges)
	if len(em) != 3 {
		t.Fatalf("edges=%v", em)
	}
	if em[[2]int{0, 2}] != 2 || em[[2]int{1, 2}] != 1 || em[[2]int{1, 3}] != 1 {
		t.Errorf("CBS weights wrong: %v", em)
	}
}

func TestWeightingSchemes(t *testing.T) {
	col := fixture(t)
	g := Build(col, JS)
	em := edgeMap(g.Edges)
	// |B0|=2 (xx,yy), |B2|=2, common=2 → JS = 2/(2+2-2) = 1.
	if math.Abs(em[[2]int{0, 2}]-1) > 1e-9 {
		t.Errorf("JS(0,2)=%v, want 1", em[[2]int{0, 2}])
	}
	// |B1|=2 (yy,zz), |B3|=1 (zz), common=1 → JS = 1/2.
	if math.Abs(em[[2]int{1, 3}]-0.5) > 1e-9 {
		t.Errorf("JS(1,3)=%v, want 0.5", em[[2]int{1, 3}])
	}

	g.Reweigh(ARCS)
	em = edgeMap(g.Edges)
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
		g := Build(col, s)
		em := edgeMap(g.Edges)
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
	g := Build(fixture(t), CBS)
	kept := g.Prune(WEP, PruneOptions{})
	// Weights 2,1,1; mean = 4/3; only (0,2) survives.
	if len(kept) != 1 || kept[0].A != 0 || kept[0].B != 2 {
		t.Errorf("WEP kept %v", kept)
	}
}

func TestCEP(t *testing.T) {
	g := Build(fixture(t), CBS)
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

func TestWNPAndReciprocal(t *testing.T) {
	g := Build(fixture(t), CBS)
	either := g.Prune(WNP, PruneOptions{})
	both := g.Prune(WNP, PruneOptions{Reciprocal: true})
	if len(both) > len(either) {
		t.Errorf("reciprocal WNP kept more (%d) than redefined (%d)", len(both), len(either))
	}
	// Node 3's only edge is (1,3): locally retained. Node 1 has edges
	// (1,2) and (1,3) with equal weight 1 → both ≥ mean → retained.
	// So (1,3) survives reciprocal WNP.
	found := false
	for _, e := range both {
		if e.A == 1 && e.B == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("reciprocal WNP lost (1,3): %v", both)
	}
}

func TestCNP(t *testing.T) {
	g := Build(fixture(t), CBS)
	kept := g.Prune(CNP, PruneOptions{KPerNode: 1})
	// Every node keeps its single heaviest edge; union of those.
	if len(kept) == 0 {
		t.Fatal("CNP kept nothing")
	}
	top := kept[0]
	if top.A != 0 || top.B != 2 {
		t.Errorf("CNP top edge %v", top)
	}
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
			g := Build(col, s)
			if g.NumEdges() == 0 {
				continue
			}
			// Non-negative weights.
			maxW, maxIdx := -1.0, -1
			for i, e := range g.Edges {
				if e.Weight < 0 {
					return false
				}
				if e.Weight > maxW {
					maxW, maxIdx = e.Weight, i
				}
			}
			all := make(map[[2]int]bool, g.NumEdges())
			for _, e := range g.Edges {
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
					if !seen[[2]int{g.Edges[maxIdx].A, g.Edges[maxIdx].B}] {
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
	g := Build(col, ECBS)
	kept := g.Prune(WNP, PruneOptions{})
	if len(kept) >= g.NumEdges() {
		t.Fatalf("WNP pruned nothing: %d of %d", len(kept), g.NumEdges())
	}
	matchesBefore, matchesAfter := 0, 0
	for _, e := range g.Edges {
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

// referenceGraph is the block-order reference of the blocking graph,
// independent of the kernel: a plain map keyed by pair, folding every
// block's pair occurrences in block order, then sorted into canonical
// (A, B) order and weighed under scheme by the scheme's formula, not by
// Graph.reweigh.
func referenceGraph(col *blocking.Collection, scheme Scheme) *Graph {
	type evidence struct {
		common int
		arcs   float64
	}
	n := col.Source.Len()
	g := &Graph{NumNodes: n, nBlock: len(col.Blocks), nLive: col.Source.NumAlive(),
		blocks: make([]int32, n), degree: make([]int32, n)}
	acc := make(map[[2]int]*evidence)
	for _, b := range col.Blocks {
		for _, id := range b.Entities {
			g.blocks[id]++
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
		g.Edges = append(g.Edges, Edge{A: p[0], B: p[1]})
		g.common = append(g.common, acc[p].common)
		g.arcs = append(g.arcs, acc[p].arcs)
		g.degree[p[0]]++
		g.degree[p[1]]++
	}
	nBlock, nEdges := float64(g.nBlock), float64(len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		cbs := float64(g.common[i])
		ba, bb := float64(g.blocks[e.A]), float64(g.blocks[e.B])
		switch scheme {
		case CBS:
			e.Weight = cbs
		case ECBS:
			e.Weight = cbs * definitionLog(nBlock/ba) * definitionLog(nBlock/bb)
		case JS:
			e.Weight = cbs / (ba + bb - cbs)
		case EJS:
			da, db := float64(g.degree[e.A]), float64(g.degree[e.B])
			e.Weight = cbs / (ba + bb - cbs) * definitionLog(nEdges/da) * definitionLog(nEdges/db)
		case ARCS:
			e.Weight = g.arcs[i]
		}
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

// TestBuildMatchesBlockOrderReference pins the entity-centric kernel to
// the independent block-order reference: every edge (weights compared
// by bits), its common-block count and ARCS sum, every per-node and
// global counter, and the per-node log factors of ECBS and EJS (by
// bits), for every scheme, on the hand fixture, a clean–clean world, a
// dirty world, and a tombstoned source with interleaved KBs.
func TestBuildMatchesBlockOrderReference(t *testing.T) {
	generated := func(cfg datagen.Config) *blocking.Collection {
		w, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	}
	for _, tc := range []struct {
		name string
		col  *blocking.Collection
	}{
		{"fixture", fixture(t)},
		{"cleanclean", generated(datagen.TwoKBs(21, 120, datagen.Center(), datagen.Center()))},
		{"dirty", generated(datagen.DirtyKB(21, 120, 3))},
		{"interleaved-tombstoned", interleavedTombstoned(t)},
	} {
		for _, scheme := range Schemes() {
			want := referenceGraph(tc.col, scheme)
			got := Build(tc.col, scheme)
			label := fmt.Sprintf("%s/%v", tc.name, scheme)
			if len(want.Edges) == 0 {
				t.Fatalf("%s: reference graph is empty — input broken", label)
			}
			if got.NumNodes != want.NumNodes || got.nBlock != want.nBlock || got.LiveNodes() != want.LiveNodes() {
				t.Fatalf("%s: nodes/blocks/live %d/%d/%d, want %d/%d/%d", label,
					got.NumNodes, got.nBlock, got.LiveNodes(), want.NumNodes, want.nBlock, want.LiveNodes())
			}
			if len(got.Edges) != len(want.Edges) {
				t.Fatalf("%s: %d edges, want %d", label, len(got.Edges), len(want.Edges))
			}
			for i, w := range want.Edges {
				e := got.Edges[i]
				if e.A != w.A || e.B != w.B || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
					t.Fatalf("%s: edge %d = %+v, want %+v", label, i, e, w)
				}
				if got.common[i] != want.common[i] || math.Float64bits(got.arcs[i]) != math.Float64bits(want.arcs[i]) {
					t.Fatalf("%s: edge %d evidence (%d, %v), want (%d, %v)", label, i,
						got.common[i], got.arcs[i], want.common[i], want.arcs[i])
				}
			}
			for id := 0; id < want.NumNodes; id++ {
				if got.blocks[id] != want.blocks[id] || got.degree[id] != want.degree[id] {
					t.Fatalf("%s: node %d counters (%d,%d), want (%d,%d)", label, id,
						got.blocks[id], got.degree[id], want.blocks[id], want.degree[id])
				}
			}
			if scheme != ECBS && scheme != EJS {
				continue
			}
			num, den := float64(want.nBlock), want.blocks
			if scheme == EJS {
				num, den = float64(len(want.Edges)), want.degree
			}
			f := got.nodeFactors(scheme)
			for v, d := range den {
				if d == 0 {
					continue // no edge reads the factor of a node without blocks or edges
				}
				if def := definitionLog(num / float64(d)); math.Float64bits(f[v]) != math.Float64bits(def) {
					t.Fatalf("%s: node %d log factor %v, want %v", label, v, f[v], def)
				}
			}
		}
	}
}
