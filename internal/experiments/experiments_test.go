package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func cell(t *Table, row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			return t.Rows[row][i]
		}
	}
	return ""
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestF1PipelineShape(t *testing.T) {
	tab := F1Pipeline(1, 150)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d, want 5 stages", len(tab.Rows))
	}
	// Meta-blocking candidates must be below raw blocking candidates.
	blockCands := num(t, cell(tab, 1, "candidates"))
	prunedCands := num(t, cell(tab, 3, "candidates"))
	if prunedCands >= blockCands {
		t.Errorf("meta-blocking did not reduce candidates: %v -> %v", blockCands, prunedCands)
	}
	// Final recall must be positive.
	if rec := num(t, cell(tab, 4, "PC")); rec <= 0.3 {
		t.Errorf("pipeline recall %v too low", rec)
	}
}

func TestT1Shape(t *testing.T) {
	tab := T1Blocking(1, []int{150})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	tokPC := num(t, cell(tab, 0, "PC"))
	tokRR := num(t, cell(tab, 0, "RR"))
	if tokPC < 0.95 {
		t.Errorf("token blocking PC=%v, want ≈1 in the center", tokPC)
	}
	if tokRR < 0.2 {
		// Raw token blocking over a Zipf-heavy vocabulary keeps big
		// head-token blocks; cleaning (T2) is what restores RR.
		t.Errorf("token blocking RR=%v, want some reduction", tokRR)
	}
	acPQ := num(t, cell(tab, 1, "PQ"))
	tokPQ := num(t, cell(tab, 0, "PQ"))
	if acPQ < tokPQ {
		t.Errorf("attribute clustering PQ=%v below token blocking PQ=%v", acPQ, tokPQ)
	}
}

func TestT2Shape(t *testing.T) {
	tab := T2BlockCleaning(2, 200)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	prev := num(t, cell(tab, 0, "candidates"))
	last := num(t, cell(tab, 3, "candidates"))
	if last >= prev {
		t.Errorf("purge+filter did not shrink candidates: %v -> %v", prev, last)
	}
	// PC after full cleaning must stay close to raw PC.
	if drop := num(t, cell(tab, 0, "PC")) - num(t, cell(tab, 3, "PC")); drop > 0.1 {
		t.Errorf("cleaning lost %v PC", drop)
	}
}

func TestT3Shape(t *testing.T) {
	tab := T3MetaBlocking(3, 200)
	if len(tab.Rows) != 20 { // 5 schemes × 4 prunings
		t.Fatalf("rows=%d, want 20", len(tab.Rows))
	}
	for i := range tab.Rows {
		keptFrac := num(t, cell(tab, i, "kept%"))
		if keptFrac <= 0 || keptFrac > 1 {
			t.Errorf("row %d kept%%=%v outside (0,1]", i, keptFrac)
		}
		pc := num(t, cell(tab, i, "PC"))
		if pc < 0.3 {
			t.Errorf("row %d (%s/%s) PC=%v collapsed", i, tab.Rows[i][0], tab.Rows[i][1], pc)
		}
	}
}

func TestF2Shape(t *testing.T) {
	tab := F2Progressive(4, 200)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	var minoanAUC, randomAUC float64
	for i := range tab.Rows {
		switch tab.Rows[i][0] {
		case "minoan":
			minoanAUC = num(t, cell(tab, i, "AUC"))
		case "random":
			randomAUC = num(t, cell(tab, i, "AUC"))
		}
	}
	if minoanAUC <= randomAUC {
		t.Errorf("minoan AUC %v does not beat random %v", minoanAUC, randomAUC)
	}
}

func TestF3Shape(t *testing.T) {
	tab := F3Benefits(5, 200)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	for i := range tab.Rows {
		quarter := num(t, cell(tab, i, "25%"))
		if quarter < 0.5 {
			t.Errorf("model %s realizes only %v of benefit at quarter budget", tab.Rows[i][0], quarter)
		}
		if fin := num(t, cell(tab, i, "final(abs)")); fin <= 0 {
			t.Errorf("model %s final benefit %v", tab.Rows[i][0], fin)
		}
	}
}

func TestT4Shape(t *testing.T) {
	tab := T4NeighborEvidence(7, 250)
	with := num(t, cell(tab, 0, "recall"))
	without := num(t, cell(tab, 1, "recall"))
	if with <= without {
		t.Errorf("update phase recall %v !> %v", with, without)
	}
	if disc := num(t, cell(tab, 0, "discovered")); disc <= 0 {
		t.Errorf("no discovered comparisons: %v", disc)
	}
}

func TestF4Shape(t *testing.T) {
	tab := F4Scalability(9, []int{100, 200})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	b1 := num(t, cell(tab, 0, "brute"))
	b2 := num(t, cell(tab, 1, "brute"))
	p1 := num(t, cell(tab, 0, "pruned"))
	p2 := num(t, cell(tab, 1, "pruned"))
	// Brute force quadruples when entities double; pruned comparisons
	// must grow far slower.
	if b2 < 3.5*b1 {
		t.Errorf("brute force not quadratic: %v -> %v", b1, b2)
	}
	if p2 > 3*p1 {
		t.Errorf("pruned comparisons grew too fast: %v -> %v", p1, p2)
	}
}

func TestT6Shape(t *testing.T) {
	tab := T6DirtyER(10, 200)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	if rec := num(t, cell(tab, 1, "PC/recall")); rec < 0.5 {
		t.Errorf("dirty ER recall %v too low", rec)
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "note",
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X: demo ==", "a    bee", "333", "-- note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
