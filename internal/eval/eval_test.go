package eval

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// world: 2 KBs × 2 descriptions; (0,2) and (1,3) are true matches.
func world(t *testing.T) (*kb.Collection, *kb.GroundTruth) {
	t.Helper()
	c := kb.NewCollection()
	c.Add(&kb.Description{URI: "a0", KB: "a", Attrs: []kb.Attribute{{Predicate: "p", Value: "foo bar"}}})
	c.Add(&kb.Description{URI: "a1", KB: "a", Attrs: []kb.Attribute{{Predicate: "p", Value: "baz qux"}}})
	c.Add(&kb.Description{URI: "b0", KB: "b", Attrs: []kb.Attribute{{Predicate: "p", Value: "foo bar"}}})
	c.Add(&kb.Description{URI: "b1", KB: "b", Attrs: []kb.Attribute{{Predicate: "p", Value: "baz nop"}}})
	g := kb.NewGroundTruth()
	g.AddClass(0, 2)
	g.AddClass(1, 3)
	return c, g
}

func TestBruteForceComparisons(t *testing.T) {
	c, _ := world(t)
	if got := BruteForceComparisons(c); got != 4 {
		t.Errorf("clean-clean brute=%d, want 4", got)
	}
	d := kb.NewCollection()
	for i := 0; i < 5; i++ {
		d.Add(&kb.Description{URI: string(rune('a' + i)), KB: "k"})
	}
	if got := BruteForceComparisons(d); got != 10 {
		t.Errorf("dirty brute=%d, want 10", got)
	}
}

func TestEvaluatePairs(t *testing.T) {
	c, g := world(t)
	pairs := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}} // 1 match, 1 non-match
	q := EvaluatePairs(c, g, pairs)
	if !approx(q.PC, 0.5) || !approx(q.PQ, 0.5) || !approx(q.RR, 0.5) {
		t.Errorf("quality=%+v", q)
	}
	if q.Matches != 1 || q.TotalMatches != 2 || q.BruteForce != 4 {
		t.Errorf("counts=%+v", q)
	}
	if !strings.Contains(q.String(), "PC=0.5000") {
		t.Errorf("String=%q", q.String())
	}
}

func TestEvaluateBlocksAndEdges(t *testing.T) {
	c, g := world(t)
	col := blocking.TokenBlocking(c, tokenize.Default())
	q := EvaluateBlocks(col, g)
	// foo,bar block (0,2); baz blocks (1,3). PC=1.
	if !approx(q.PC, 1) {
		t.Errorf("PC=%v, want 1", q.PC)
	}
	graph := metablocking.Build(col, metablocking.CBS, 1)
	qe := EvaluateEdges(c, g, slices.Collect(graph.Edges()))
	if qe.Candidates != q.Candidates || qe.Matches != q.Matches {
		t.Errorf("edges quality %+v != blocks quality %+v", qe, q)
	}
}

func TestEvaluateMatches(t *testing.T) {
	c, g := world(t)
	pred := []blocking.Pair{{A: 0, B: 2}, {A: 0, B: 3}}
	m := EvaluateMatches(c, g, pred)
	if m.TP != 1 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("counts=%+v", m)
	}
	if !approx(m.Precision, 0.5) || !approx(m.Recall, 0.5) || !approx(m.F1, 0.5) {
		t.Errorf("PRF=%+v", m)
	}
	if !strings.Contains(m.String(), "F1=0.5000") {
		t.Errorf("String=%q", m.String())
	}
	empty := EvaluateMatches(c, g, nil)
	if empty.Precision != 0 || empty.Recall != 0 || empty.F1 != 0 {
		t.Errorf("empty prediction=%+v", empty)
	}
}

func TestRecallCurve(t *testing.T) {
	// Matches at comparisons 1 and 4 out of 2 total matches.
	outcomes := []bool{true, false, false, true, false}
	c := RecallCurve(outcomes, 2, 0)
	if got := c.At(0); got != 0 {
		t.Errorf("At(0)=%v", got)
	}
	if got := c.At(1); !approx(got, 0.5) {
		t.Errorf("At(1)=%v, want 0.5", got)
	}
	if got := c.At(3); !approx(got, 0.5) {
		t.Errorf("At(3)=%v, want 0.5", got)
	}
	if got := c.At(4); !approx(got, 1) {
		t.Errorf("At(4)=%v, want 1", got)
	}
	if !approx(c.Final(), 1) {
		t.Errorf("Final=%v", c.Final())
	}
	if RecallCurve(outcomes, 0, 0) != nil {
		t.Error("zero total matches should give nil curve")
	}
}

func TestAUC(t *testing.T) {
	// Early match: recall 1 after comparison 1 of 4 → AUC = 3/4.
	early := RecallCurve([]bool{true, false, false, false}, 1, 0)
	if got := early.AUC(4); !approx(got, 0.75) {
		t.Errorf("early AUC=%v, want 0.75", got)
	}
	// Late match: recall 1 only at the very end → AUC = 0.
	late := RecallCurve([]bool{false, false, false, true}, 1, 0)
	if got := late.AUC(4); !approx(got, 0) {
		t.Errorf("late AUC=%v, want 0", got)
	}
	if got := Curve(nil).AUC(10); got != 0 {
		t.Errorf("nil curve AUC=%v", got)
	}
	if got := early.AUC(0); got != 0 {
		t.Errorf("zero horizon AUC=%v", got)
	}
	// AUC beyond the curve extends the final value.
	if got := early.AUC(8); !approx(got, 7.0/8.0) {
		t.Errorf("extended AUC=%v, want 0.875", got)
	}
}

func TestRecallCurveDownsampling(t *testing.T) {
	outcomes := make([]bool, 10000)
	for i := 0; i < 10000; i += 100 {
		outcomes[i] = true
	}
	c := RecallCurve(outcomes, 100, 50)
	if len(c) > 200 { // match points are always kept
		t.Errorf("curve has %d points", len(c))
	}
	if !approx(c.Final(), 1) {
		t.Errorf("Final=%v", c.Final())
	}
}

// Property: recall curves are monotone non-decreasing in [0,1], and
// AUC is within [0,1] and monotone in prefix quality.
func TestCurveProperties(t *testing.T) {
	f := func(raw []bool) bool {
		total := 0
		for _, b := range raw {
			if b {
				total++
			}
		}
		if total == 0 {
			return RecallCurve(raw, total, 0) == nil
		}
		c := RecallCurve(raw, total, 0)
		prev := 0.0
		for _, p := range c {
			if p.Value < prev-1e-12 || p.Value > 1+1e-12 {
				return false
			}
			prev = p.Value
		}
		if !approx(c.Final(), 1) {
			return false
		}
		auc := c.AUC(len(raw))
		return auc >= -1e-12 && auc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
