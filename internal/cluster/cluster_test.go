package cluster

import (
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

func TestAlgorithmStrings(t *testing.T) {
	if TransitiveClosure.String() != "transitive-closure" ||
		Center.String() != "center" || UniqueMapping.String() != "unique-mapping" {
		t.Error("names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm renders empty")
	}
}

func TestTransitiveClosureChains(t *testing.T) {
	ms := []Match{{A: 0, B: 1, Score: 0.9}, {A: 1, B: 2, Score: 0.8}}
	cl := Cluster(TransitiveClosure, ms, nil, 4)
	if !cl.Same(0, 2) {
		t.Error("closure did not chain")
	}
}

func TestCenterRefusesSatelliteChains(t *testing.T) {
	// 0-1 strongest (0 center, 1 satellite); 1-2 would chain through a
	// satellite and must be dropped; 0-3 attaches 3 to the center.
	ms := []Match{
		{A: 0, B: 1, Score: 0.9},
		{A: 1, B: 2, Score: 0.8},
		{A: 0, B: 3, Score: 0.7},
	}
	cl := Cluster(Center, ms, nil, 5)
	if !cl.Same(0, 1) || !cl.Same(0, 3) {
		t.Error("center cluster wrong membership")
	}
	if cl.Same(1, 2) || cl.Same(0, 2) {
		t.Error("satellite chained")
	}
}

func TestUniqueMappingOnePartnerPerKB(t *testing.T) {
	c := kb.NewCollection()
	a0 := c.Add(&kb.Description{URI: "a0", KB: "a"})
	b0 := c.Add(&kb.Description{URI: "b0", KB: "b"})
	b1 := c.Add(&kb.Description{URI: "b1", KB: "b"})
	x0 := c.Add(&kb.Description{URI: "x0", KB: "x"})
	ms := []Match{
		{A: a0, B: b0, Score: 0.9},
		{A: a0, B: b1, Score: 0.8}, // second partner in KB b: dropped
		{A: a0, B: x0, Score: 0.7}, // partner in a third KB: allowed
	}
	cl := Cluster(UniqueMapping, ms, c, c.Len())
	if !cl.Same(a0, b0) || !cl.Same(a0, x0) {
		t.Error("accepted pairs missing")
	}
	if cl.Same(a0, b1) {
		t.Error("second partner in the same KB accepted")
	}
}

func TestUniqueMappingNilCollection(t *testing.T) {
	ms := []Match{{A: 0, B: 1, Score: 0.9}, {A: 0, B: 2, Score: 0.8}}
	cl := Cluster(UniqueMapping, ms, nil, 3)
	if !cl.Same(0, 1) || cl.Same(0, 2) {
		t.Error("nil-collection degradation wrong")
	}
}

func TestScoreOrderDecides(t *testing.T) {
	// With reversed input order, the higher-scoring pair must still win
	// the unique-mapping slot.
	c := kb.NewCollection()
	a0 := c.Add(&kb.Description{URI: "a0", KB: "a"})
	b0 := c.Add(&kb.Description{URI: "b0", KB: "b"})
	b1 := c.Add(&kb.Description{URI: "b1", KB: "b"})
	ms := []Match{
		{A: a0, B: b1, Score: 0.5},
		{A: a0, B: b0, Score: 0.9},
	}
	cl := Cluster(UniqueMapping, ms, c, c.Len())
	if !cl.Same(a0, b0) || cl.Same(a0, b1) {
		t.Error("score ordering ignored")
	}
}

// On a dirty workload, center clustering and unique mapping must beat
// transitive closure on precision.
func TestClusteringImprovesDirtyPrecision(t *testing.T) {
	w, err := datagen.Generate(datagen.DirtyKB(17, 250, 2))
	if err != nil {
		t.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	res := core.NewResolver(m, edges, core.Config{}).RunBudget(0)
	matches := FromSteps(res.Trace)

	prf := func(alg Algorithm) eval.MatchQuality {
		cl := Cluster(alg, matches, w.Collection, w.Collection.Len())
		var pairs []blocking.Pair
		for _, p := range cl.Pairs(w.Collection, false) {
			pairs = append(pairs, blocking.Pair{A: p[0], B: p[1]})
		}
		return eval.EvaluateMatches(w.Collection, w.Truth, pairs)
	}
	tc := prf(TransitiveClosure)
	ce := prf(Center)
	if ce.Precision <= tc.Precision {
		t.Errorf("center precision %.3f !> closure %.3f", ce.Precision, tc.Precision)
	}
	if ce.F1 < tc.F1-0.05 {
		t.Errorf("center F1 %.3f collapsed vs closure %.3f", ce.F1, tc.F1)
	}
}

func TestFromSteps(t *testing.T) {
	steps := []core.Step{
		{A: 0, B: 1, Score: 0.8, Matched: true},
		{A: 1, B: 2, Score: 0.2, Matched: false},
	}
	ms := FromSteps(steps)
	if len(ms) != 1 || ms[0] != (Match{A: 0, B: 1, Score: 0.8}) {
		t.Errorf("FromSteps=%v", ms)
	}
}
