package baseline

import (
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

type fixture struct {
	w     *datagen.World
	col   *blocking.Collection
	graph *metablocking.Graph
	edges []metablocking.Edge
	m     *match.Matcher
}

func setup(t *testing.T, seed int64, n int) *fixture {
	t.Helper()
	w, err := datagen.Generate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	return &fixture{w: w, col: col, graph: g, edges: edges,
		m: match.NewMatcher(w.Collection, match.DefaultOptions())}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	f := setup(t, 51, 60)
	pairs := f.col.DistinctPairs()
	shuffled := RandomOrder(pairs, 1)
	if len(shuffled) != len(pairs) {
		t.Fatalf("length changed: %d vs %d", len(shuffled), len(pairs))
	}
	set := map[blocking.Pair]int{}
	for _, p := range pairs {
		set[p]++
	}
	for _, p := range shuffled {
		set[p]--
	}
	for p, n := range set {
		if n != 0 {
			t.Fatalf("pair %v count %d after shuffle", p, n)
		}
	}
	// Deterministic per seed; different across seeds.
	again := RandomOrder(pairs, 1)
	if !reflect.DeepEqual(shuffled, again) {
		t.Error("same seed gave different order")
	}
	other := RandomOrder(pairs, 2)
	if reflect.DeepEqual(shuffled, other) && len(pairs) > 10 {
		t.Error("different seeds gave identical order")
	}
	// Input untouched.
	if !reflect.DeepEqual(pairs, f.col.DistinctPairs()) {
		t.Error("RandomOrder mutated its input")
	}
}

func TestWeightOrder(t *testing.T) {
	f := setup(t, 52, 60)
	order := WeightOrder(f.edges)
	if len(order) != len(f.edges) {
		t.Fatalf("length %d != %d", len(order), len(f.edges))
	}
	for i, e := range f.edges {
		if order[i] != blocking.MakePair(e.A, e.B) {
			t.Fatalf("order[%d]=%v != edge %v", i, order[i], e)
		}
	}
}

func TestDensityOrderCoversGraph(t *testing.T) {
	f := setup(t, 53, 80)
	order := DensityOrder(f.col, f.graph)
	if len(order) != f.graph.NumEdges() {
		t.Fatalf("density order has %d pairs, graph has %d edges", len(order), f.graph.NumEdges())
	}
	seen := map[blocking.Pair]bool{}
	for _, p := range order {
		if seen[p] {
			t.Fatalf("pair %v repeated", p)
		}
		seen[p] = true
	}
}

func TestExecuteBudgetAndSkip(t *testing.T) {
	f := setup(t, 54, 80)
	order := WeightOrder(f.edges)
	res := Execute(f.m, order, false, 30)
	if res.Comparisons != 30 && res.Comparisons != len(res.Trace) {
		t.Errorf("comparisons=%d trace=%d", res.Comparisons, len(res.Trace))
	}
	if res.Comparisons > 30 {
		t.Errorf("budget exceeded: %d", res.Comparisons)
	}
	// Unlimited run: no pair compared twice, transitive skips respected,
	// and a pair whose value similarity is below MinValueSim is gated,
	// not decided: it has no step and spends no budget.
	full := Execute(f.m, order, false, 0)
	seen := map[blocking.Pair]bool{}
	for _, s := range full.Trace {
		p := blocking.MakePair(s.A, s.B)
		if seen[p] {
			t.Fatalf("pair %v compared twice", p)
		}
		seen[p] = true
		if v := f.m.ValueSim(s.A, s.B); v < f.m.Options().MinValueSim {
			t.Fatalf("pair %v of value similarity %v was decided", p, v)
		}
	}
	dead := 0
	for _, p := range order {
		if !f.m.CanMatch(f.m.ValueSim(p.A, p.B)) {
			dead++
		}
	}
	if dead == 0 || full.Comparisons != len(full.Trace) || full.Comparisons+dead > len(order) {
		t.Fatalf("%d of %d pairs dead, comparisons %d, trace %d", dead, len(order), full.Comparisons, len(full.Trace))
	}
}

func TestSchedulerBeatsBaselinesEarly(t *testing.T) {
	// The core claim (F2): at small budgets, Minoan ER's scheduler
	// achieves at least the recall of random and block order.
	f := setup(t, 55, 250)
	budget := len(f.edges) / 4
	truthOutcomes := func(res *core.Result) []bool {
		out := make([]bool, len(res.Trace))
		for i, s := range res.Trace {
			out[i] = s.Matched && f.w.Truth.Match(s.A, s.B)
		}
		return out
	}
	total := f.w.Truth.CrossKBMatchingPairs(f.w.Collection)

	minoan := core.NewResolver(f.m, f.edges, core.Config{}).RunBudget(budget)
	random := Execute(f.m, RandomOrder(f.col.DistinctPairs(), 99), false, budget)
	blockO := Execute(f.m, BlockOrder(f.col), false, budget)

	rMinoan := eval.RecallCurve(truthOutcomes(minoan), total, 0).Final()
	rRandom := eval.RecallCurve(truthOutcomes(random), total, 0).Final()
	rBlock := eval.RecallCurve(truthOutcomes(blockO), total, 0).Final()

	if rMinoan < rRandom {
		t.Errorf("scheduler recall %.3f below random %.3f at budget %d", rMinoan, rRandom, budget)
	}
	if rMinoan < rBlock {
		t.Errorf("scheduler recall %.3f below block order %.3f at budget %d", rMinoan, rBlock, budget)
	}
}
