package core

import (
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// pipeline builds matcher + pruned edges for a generated world.
func pipeline(t *testing.T, w *datagen.World) (*match.Matcher, []metablocking.Edge) {
	t.Helper()
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	return match.NewMatcher(w.Collection, match.DefaultOptions()), edges
}

func TestResolverBudget(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(41, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	res := NewResolver(m, edges, Config{}).RunBudget(50)
	if res.Comparisons != 50 {
		t.Errorf("comparisons=%d, want exactly 50", res.Comparisons)
	}
	if len(res.Trace) != res.Comparisons {
		t.Errorf("trace length %d != comparisons %d", len(res.Trace), res.Comparisons)
	}
	// Unlimited budget drains the queue and resolves most of the world.
	full := NewResolver(m, edges, Config{}).RunBudget(0)
	q := eval.EvaluateMatches(w.Collection, w.Truth, full.MatchedPairs(m))
	if q.Recall < 0.8 {
		t.Errorf("full-run recall %.3f too low (%+v)", q.Recall, q)
	}
	if q.Precision < 0.70 {
		t.Errorf("full-run precision %.3f too low (%+v)", q.Precision, q)
	}
}

func TestSchedulerFrontLoadsMatches(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(42, 300, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	res := NewResolver(m, edges, Config{}).RunBudget(0)
	// Progressive property: the first half of the trace must contain
	// clearly more matches than the second half.
	half := len(res.Trace) / 2
	first, second := 0, 0
	for i, s := range res.Trace {
		if s.Matched {
			if i < half {
				first++
			} else {
				second++
			}
		}
	}
	if first <= second {
		t.Errorf("matches not front-loaded: first=%d second=%d", first, second)
	}
}

func TestNeighborDiscoveryRecoversPeriphery(t *testing.T) {
	// Periphery KBs: token blocking misses many matches; discovery via
	// neighbor evidence must recover some of them.
	cfg := datagen.Config{
		Seed:        7,
		NumEntities: 250,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	}
	w, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)

	with := NewResolver(m, edges, Config{}).RunBudget(0)
	without := NewResolver(m, edges, Config{DisableDiscovery: true}).RunBudget(0)

	qWith := eval.EvaluateMatches(w.Collection, w.Truth, with.MatchedPairs(m))
	qWithout := eval.EvaluateMatches(w.Collection, w.Truth, without.MatchedPairs(m))
	if with.Discovered == 0 {
		t.Error("no comparisons were discovered")
	}
	if qWith.Recall <= qWithout.Recall {
		t.Errorf("discovery did not improve recall: with=%.3f without=%.3f",
			qWith.Recall, qWithout.Recall)
	}
}

func TestBenefitModelGains(t *testing.T) {
	c := kb.NewCollection()
	for i := 0; i < 6; i++ {
		kbName := "a"
		if i%2 == 1 {
			kbName = "b"
		}
		c.Add(&kb.Description{URI: string(rune('u' + i)), KB: kbName,
			Attrs: []kb.Attribute{{Predicate: "p", Value: "v"}}})
	}
	m := match.NewMatcher(c, match.DefaultOptions())
	cl := match.NewClusters(6)

	if g := (Quantity{}).Gain(0, 1, cl, m); g != 1 {
		t.Errorf("Quantity singleton gain=%v", g)
	}
	if g := (AttributeCompleteness{}).Gain(0, 1, cl, m); g != 2 {
		t.Errorf("AC singleton gain=%v", g)
	}
	if g := (EntityCoverage{}).Gain(0, 1, cl, m); g != 1 {
		t.Errorf("EC singleton gain=%v", g)
	}
	cl.Merge(0, 1)
	cl.Merge(2, 3)
	// Merging two resolved clusters: quantity counts 4 new pairs,
	// attribute completeness 0 new descriptions, coverage 0 entities.
	if g := (Quantity{}).Gain(0, 2, cl, m); g != 4 {
		t.Errorf("Quantity cluster gain=%v", g)
	}
	if g := (AttributeCompleteness{}).Gain(0, 2, cl, m); g != 0 {
		t.Errorf("AC cluster gain=%v", g)
	}
	if g := (EntityCoverage{}).Gain(0, 2, cl, m); g != 0 {
		t.Errorf("EC cluster gain=%v", g)
	}
	// Extending a cluster with a singleton.
	if g := (AttributeCompleteness{}).Gain(0, 4, cl, m); g != 1 {
		t.Errorf("AC extend gain=%v", g)
	}
	if g := (EntityCoverage{}).Gain(0, 4, cl, m); g != 0 {
		t.Errorf("EC extend gain=%v", g)
	}
}

func TestRelationshipCompletenessGain(t *testing.T) {
	c := kb.NewCollection()
	// a0 -> a1 ; b0 -> b1 (links within KBs).
	c.Add(&kb.Description{URI: "a0", KB: "a", Links: []string{"a1"},
		Attrs: []kb.Attribute{{Predicate: "p", Value: "x"}}})
	c.Add(&kb.Description{URI: "a1", KB: "a",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "y"}}})
	c.Add(&kb.Description{URI: "b0", KB: "b", Links: []string{"b1"},
		Attrs: []kb.Attribute{{Predicate: "p", Value: "x"}}})
	c.Add(&kb.Description{URI: "b1", KB: "b",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "y"}}})
	m := match.NewMatcher(c, match.DefaultOptions())
	cl := match.NewClusters(4)
	rc := RelationshipCompleteness{}
	// Nothing resolved: matching (0,2) resolves 0 links — their
	// neighbors (1 and 3) are still singletons.
	if g := rc.Gain(0, 2, cl, m); g != 0 {
		t.Errorf("gain before neighbor resolution = %v", g)
	}
	cl.Merge(1, 3) // resolve the neighbor pair first
	// Now matching (0,2): each endpoint is newly resolved and has one
	// link to a resolved description → gain 2.
	if g := rc.Gain(0, 2, cl, m); g != 2 {
		t.Errorf("gain after neighbor resolution = %v, want 2", g)
	}
	// Bias follows the frontier.
	if b := rc.Bias(0, 2, cl, m); b != 1 {
		t.Errorf("bias=%v, want 1 (all neighbors resolved)", b)
	}
	if b := rc.Bias(1, 3, cl, m); b != 0 {
		t.Errorf("bias for link-less pair=%v", b)
	}
	if rc.Gain(0, 2, cl, nil) != 0 || rc.Bias(0, 2, cl, nil) != 0 {
		t.Error("nil matcher should be harmless")
	}
}

func TestModelNames(t *testing.T) {
	names := map[string]bool{}
	for _, m := range Models() {
		if m.Name() == "" {
			t.Error("empty model name")
		}
		if names[m.Name()] {
			t.Errorf("duplicate model name %s", m.Name())
		}
		names[m.Name()] = true
	}
	if len(names) != 4 {
		t.Errorf("Models()=%d, want 4", len(names))
	}
}

func TestResolverDeterministic(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(43, 120, datagen.Center(), datagen.Periphery()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	r1 := NewResolver(m, edges, Config{}).RunBudget(200)
	r2 := NewResolver(m, edges, Config{}).RunBudget(200)
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	for i := range r1.Trace {
		if r1.Trace[i] != r2.Trace[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, r1.Trace[i], r2.Trace[i])
		}
	}
}

func TestNoRepeatedComparisons(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(44, 100, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	res := NewResolver(m, edges, Config{}).RunBudget(0)
	seen := map[blocking.Pair]bool{}
	for _, s := range res.Trace {
		p := blocking.MakePair(s.A, s.B)
		if seen[p] && !s.Recheck {
			t.Fatalf("pair %v compared twice without new evidence", p)
		}
		if !seen[p] && s.Recheck {
			t.Fatalf("pair %v marked recheck on first comparison", p)
		}
		seen[p] = true
	}
}

func TestGainAccounting(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(45, 100, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	res := NewResolver(m, edges, Config{Benefit: AttributeCompleteness{}}).RunBudget(0)
	sum := 0.0
	for _, s := range res.Trace {
		sum += s.Gain
	}
	if sum != res.TotalGain {
		t.Errorf("TotalGain=%v, trace sum=%v", res.TotalGain, sum)
	}
	// Attribute-completeness gain is bounded by the number of
	// descriptions.
	if res.TotalGain > float64(w.Collection.Len()) {
		t.Errorf("gain %v exceeds descriptions %d", res.TotalGain, w.Collection.Len())
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

func TestEmptyEdges(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(46, 20, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	res := NewResolver(m, nil, Config{}).RunBudget(0)
	if res.Comparisons != 0 || res.Matches != 0 {
		t.Errorf("empty edge list produced work: %+v", res)
	}
}

func TestRunResumesSession(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(47, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)

	// One run with budget 2k.
	whole := NewResolver(m, edges, Config{}).RunBudget(2000)

	// Two runs of 1k on the same resolver.
	r := NewResolver(m, edges, Config{})
	first := r.RunBudget(1000)
	second := r.RunBudget(1000)
	if first.Comparisons != 1000 {
		t.Fatalf("first leg executed %d", first.Comparisons)
	}
	combined := append(append([]Step(nil), first.Trace...), second.Trace...)
	if len(combined) != len(whole.Trace) {
		t.Fatalf("split trace %d != whole %d", len(combined), len(whole.Trace))
	}
	for i := range combined {
		if combined[i] != whole.Trace[i] {
			t.Fatalf("step %d differs after resume: %+v vs %+v", i, combined[i], whole.Trace[i])
		}
	}
	if first.Matches+second.Matches != whole.Matches {
		t.Errorf("match counts differ: %d+%d vs %d", first.Matches, second.Matches, whole.Matches)
	}
}
