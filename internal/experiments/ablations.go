package experiments

import (
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// Ablations isolate the contribution of each design choice the
// pipeline makes. They are not part of the paper's evaluation but
// ground the defaults README "## Benchmarks" cites; the Shape tests
// pin what each must show.

// A1BlockingMethods swaps the blocking layer (token / attribute
// clustering / sorted neighborhood) and measures the end-to-end
// effect on resolution quality and cost.
func A1BlockingMethods(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	opts := tokenize.Default()
	methods := []struct {
		name string
		col  *blocking.Collection
	}{
		{"token", blocking.TokenBlocking(w.Collection, opts)},
		{"attr-cluster", blocking.AttributeClustering(w.Collection, opts)},
		{"sorted-nbhd(4)", blocking.SortedNeighborhood(w.Collection, opts, 4)},
	}
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: blocking method vs end-to-end resolution",
		Header: []string{"method", "candidates", "executed", "recall", "precision", "F1"},
	}
	matcher := match.NewMatcher(w.Collection, match.DefaultOptions())
	for _, mth := range methods {
		col := mth.col.Purge(0).Filter(0.8)
		g := metablocking.Build(col, metablocking.ECBS)
		edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
		res := core.NewResolver(matcher, edges, core.Config{}).Run()
		q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(matcher))
		t.Rows = append(t.Rows, []string{
			mth.name, itoa(len(col.DistinctPairs())), itoa(res.Comparisons),
			f3(q.Recall), f3(q.Precision), f3(q.F1),
		})
	}
	t.Notes = "token blocking is the paper's choice; the alternatives trade recall for cost"
	return t
}

// A2NeighborWeight sweeps the neighbor-evidence weight on the hard
// center+periphery workload — the knob behind the update phase's
// recall/precision balance.
func A2NeighborWeight(seed int64, n int) *Table {
	cfg := datagen.Config{
		Seed:        seed,
		NumEntities: n,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	}
	w := mustGenerate(cfg)
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: neighbor-evidence weight (update-phase strength)",
		Header: []string{"weight", "comparisons", "discovered", "recall", "precision", "F1"},
	}
	// DefaultOptions is normalized, so the literal 0 below truly
	// disables neighbor evidence (no ε workaround needed).
	for _, nw := range []float64{0, 0.25, 0.5, 0.75} {
		mopts := match.DefaultOptions()
		mopts.NeighborWeight = nw
		matcher := match.NewMatcher(w.Collection, mopts)
		col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
		g := metablocking.Build(col, metablocking.ECBS)
		edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
		res := core.NewResolver(matcher, edges, core.Config{}).Run()
		q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(matcher))
		label := f3(nw)
		if nw < 0.001 {
			label = "off"
		}
		t.Rows = append(t.Rows, []string{
			label, itoa(res.Comparisons), itoa(res.Discovered),
			f3(q.Recall), f3(q.Precision), f3(q.F1),
		})
	}
	t.Notes = "expected shape: recall rises with the weight; precision holds until the weight dominates"
	return t
}

// A3SchedulerComponents disables the scheduler's moving parts one at a
// time: benefit bias, neighbor boost, discovery, and all three —
// reducing it to a static weight-order run.
func A3SchedulerComponents(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Periphery()))
	s := buildStack(w)
	total := w.Truth.CrossKBMatchingPairs(w.Collection)
	horizon := len(s.edges)
	t := &Table{
		ID:     "A3",
		Title:  "Ablation: scheduler components (recall AUC over the edge horizon)",
		Header: []string{"variant", "comparisons", "matches", "AUC", "final recall"},
	}
	// DefaultConfig is normalized: zeroing a field disables that
	// component outright (the pre-normalization harness needed an ε
	// because a literal 0 meant "use default").
	noBias := core.DefaultConfig()
	noBias.BiasWeight = 0
	noBoost := core.DefaultConfig()
	noBoost.NeighborBoost = 0
	static := core.DefaultConfig()
	static.BiasWeight, static.NeighborBoost, static.DisableDiscovery = 0, 0, true
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full", core.Config{}},
		{"no bias", noBias},
		{"no boost", noBoost},
		{"no discovery", core.Config{DisableDiscovery: true}},
		{"static order", static},
	}
	for _, v := range variants {
		res := core.NewResolver(s.m, s.edges, v.cfg).Run()
		curve := eval.RecallCurve(truthOutcomes(res, w), total, 0)
		t.Rows = append(t.Rows, []string{
			v.name, itoa(res.Comparisons), itoa(res.Matches),
			f3(curve.AUC(horizon)), f3(curve.Final()),
		})
	}
	t.Notes = "expected shape: each removed component costs AUC and/or final recall"
	return t
}

// A4SchemeProgressive measures how the meta-blocking weighting scheme
// feeds through to progressive quality: the scheduler's initial
// priorities are the normalized edge weights.
func A4SchemeProgressive(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	matcher := match.NewMatcher(w.Collection, match.DefaultOptions())
	total := w.Truth.CrossKBMatchingPairs(w.Collection)
	t := &Table{
		ID:     "A4",
		Title:  "Ablation: weighting scheme vs progressive quality",
		Header: []string{"scheme", "edges", "AUC", "final recall"},
	}
	for _, scheme := range metablocking.Schemes() {
		g := metablocking.Build(col, scheme)
		edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
		res := core.NewResolver(matcher, edges, core.Config{}).Run()
		curve := eval.RecallCurve(truthOutcomes(res, w), total, 0)
		t.Rows = append(t.Rows, []string{
			scheme.String(), itoa(len(edges)), f3(curve.AUC(len(edges))), f3(curve.Final()),
		})
	}
	t.Notes = "expected shape: evidence-aware schemes (ECBS/JS/EJS) match or beat CBS"
	return t
}

// A5PruningReciprocal contrasts redefined (either endpoint) and
// reciprocal (both endpoints) node-centric pruning.
func A5PruningReciprocal(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS)
	t := &Table{
		ID:     "A5",
		Title:  "Ablation: redefined vs reciprocal node-centric pruning",
		Header: []string{"pruning", "mode", "kept", "PC", "PQ"},
	}
	for _, alg := range []metablocking.Pruning{metablocking.WNP, metablocking.CNP} {
		for _, reciprocal := range []bool{false, true} {
			kept := g.Prune(alg, metablocking.PruneOptions{
				Assignments: col.Assignments(), Reciprocal: reciprocal,
			})
			q := eval.EvaluateEdges(w.Collection, w.Truth, kept)
			mode := "either"
			if reciprocal {
				mode = "both"
			}
			t.Rows = append(t.Rows, []string{alg.String(), mode, itoa(len(kept)), f3(q.PC), f4(q.PQ)})
		}
	}
	t.Notes = "expected shape: reciprocal keeps fewer comparisons at higher PQ, losing a little PC"
	return t
}

// A6Clustering compares match-clustering algorithms on dirty ER, where
// transitive closure amplifies every false positive.
func A6Clustering(seed int64, n int) *Table {
	w := mustGenerate(datagen.DirtyKB(seed, n, 2))
	s := buildStack(w)
	res := core.NewResolver(s.m, s.edges, core.Config{}).Run()
	matches := cluster.FromSteps(res.Trace)
	t := &Table{
		ID:     "A6",
		Title:  "Ablation: match clustering on dirty ER",
		Header: []string{"algorithm", "clusters", "recall", "precision", "F1"},
	}
	for _, alg := range cluster.Algorithms() {
		cl := cluster.Cluster(alg, matches, w.Collection, w.Collection.Len())
		var pairs []blocking.Pair
		for _, p := range cl.Pairs(w.Collection, false) {
			pairs = append(pairs, blocking.Pair{A: p[0], B: p[1]})
		}
		q := eval.EvaluateMatches(w.Collection, w.Truth, pairs)
		t.Rows = append(t.Rows, []string{
			alg.String(), itoa(len(cl.Resolved())), f3(q.Recall), f3(q.Precision), f3(q.F1),
		})
	}
	t.Notes = "expected shape: center/unique-mapping beat transitive closure on precision"
	return t
}
