package match

import (
	"math"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/tokenize"
)

func linkedWorld(t *testing.T) *kb.Collection {
	t.Helper()
	c := kb.NewCollection()
	// KB a: city linked to its country; KB b: likewise.
	c.Add(&kb.Description{URI: "a/paris", KB: "a",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "paris lights seine"}},
		Links: []string{"a/france"}})
	c.Add(&kb.Description{URI: "a/france", KB: "a",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "france republic"}}})
	c.Add(&kb.Description{URI: "b/paris", KB: "b",
		Attrs: []kb.Attribute{{Predicate: "q", Value: "paris capital"}},
		Links: []string{"b/france"}})
	c.Add(&kb.Description{URI: "b/france", KB: "b",
		Attrs: []kb.Attribute{{Predicate: "q", Value: "france republic"}}})
	return c
}

func TestValueSim(t *testing.T) {
	c := linkedWorld(t)
	m := NewMatcher(c, DefaultOptions())
	same := m.ValueSim(1, 3)  // france vs france: high
	cross := m.ValueSim(1, 2) // france vs paris: low
	if same <= cross {
		t.Errorf("ValueSim(france,france)=%v should exceed ValueSim(france,paris)=%v", same, cross)
	}
	if same <= 0.5 {
		t.Errorf("matching pair similarity %v too low", same)
	}
	if got := m.ValueSim(0, 0); got < 0.999 {
		t.Errorf("self similarity %v", got)
	}
}

func TestNeighborSim(t *testing.T) {
	c := linkedWorld(t)
	m := NewMatcher(c, DefaultOptions())
	uf := container.NewUnionFind(c.Len())
	// Before any resolution, no neighbor evidence.
	if got := m.NeighborSim(0, 2, uf); got != 0 {
		t.Errorf("NeighborSim before resolution = %v", got)
	}
	// Resolve the two france descriptions; paris pair gains evidence.
	uf.Union(1, 3)
	if got := m.NeighborSim(0, 2, uf); got != 1 {
		t.Errorf("NeighborSim after resolving neighbors = %v, want 1", got)
	}
	// France descriptions have no out-links: no evidence either way.
	if got := m.NeighborSim(1, 3, uf); got != 0 {
		t.Errorf("NeighborSim without neighbors = %v", got)
	}
	if got := m.NeighborSim(0, 2, nil); got != 0 {
		t.Errorf("nil union-find should give 0, got %v", got)
	}
}

func TestScoreAndDecide(t *testing.T) {
	c := linkedWorld(t)
	opts := DefaultOptions()
	opts.Threshold = 0.5
	m := NewMatcher(c, opts)
	uf := container.NewUnionFind(c.Len())
	base := m.Score(0, 2, uf)
	uf.Union(1, 3)
	boosted := m.Score(0, 2, uf)
	if boosted <= base {
		t.Errorf("neighbor evidence did not raise score: %v -> %v", base, boosted)
	}
	if boosted > 1 {
		t.Errorf("score %v above cap", boosted)
	}
	cl := NewClustersFor(c)
	cl.Merge(1, 3)
	if score, ok := m.Decide(1, 3, cl); !ok || score < opts.Threshold {
		t.Errorf("france pair not matched: score=%v", score)
	}
	if _, ok := m.Decide(0, 3, cl); ok {
		t.Error("paris-france matched")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := linkedWorld(t)
	m := NewMatcher(c, Options{})
	if m.Options().Threshold != 0.35 || m.Options().NeighborWeight != 0.50 {
		t.Errorf("defaults not applied: %+v", m.Options())
	}
	if m.Options().Tokenize.MinLength == 0 {
		t.Error("tokenize defaults not applied")
	}
	if m.Collection() != c {
		t.Error("Collection accessor wrong")
	}
}

func TestMatcherSeparatesWorkload(t *testing.T) {
	// On a generated center-center workload, value similarity of true
	// pairs must dominate that of random non-pairs.
	w, err := datagen.Generate(datagen.TwoKBs(5, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(w.Collection, DefaultOptions())
	var matchSum, nonSum float64
	var matchN, nonN int
	for e, ids := range w.DescsOf {
		if len(ids) != 2 {
			continue
		}
		matchSum += m.ValueSim(ids[0], ids[1])
		matchN++
		// Non-match: pair with the next entity's description.
		if e+1 < len(w.DescsOf) && len(w.DescsOf[e+1]) == 2 {
			nonSum += m.ValueSim(ids[0], w.DescsOf[e+1][1])
			nonN++
		}
	}
	avgMatch, avgNon := matchSum/float64(matchN), nonSum/float64(nonN)
	if avgMatch < avgNon+0.3 {
		t.Errorf("separation too weak: matches %.3f vs non-matches %.3f", avgMatch, avgNon)
	}
}

func TestClusters(t *testing.T) {
	c := linkedWorld(t)
	cl := NewClusters(c.Len())
	if !cl.Merge(0, 2) {
		t.Error("first merge reported false")
	}
	if cl.Merge(2, 0) {
		t.Error("repeat merge reported true")
	}
	if !cl.Same(0, 2) || cl.Same(0, 1) {
		t.Error("Same wrong")
	}
	if cl.Size(0) != 2 {
		t.Errorf("Size=%d", cl.Size(0))
	}
	res := cl.Resolved()
	if len(res) != 1 || len(res[0]) != 2 {
		t.Errorf("Resolved=%v", res)
	}
	pairs := cl.Pairs(c, true)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 2} {
		t.Errorf("Pairs=%v", pairs)
	}
	// Transitive expansion with a same-KB member.
	cl.Merge(0, 1)
	all := cl.Pairs(c, false)
	if len(all) != 3 {
		t.Errorf("transitive pairs=%v", all)
	}
	cross := cl.Pairs(c, true)
	if len(cross) != 2 {
		t.Errorf("cross-KB pairs=%v", cross)
	}
	if cl.String() == "" {
		t.Error("empty String")
	}
}

// TestValueSimMatchesRawCosine pins the cached-vector fast path: the
// matcher's ValueSim must return the exact float the TF-IDF model
// computes from the raw token multisets.
func TestValueSimMatchesRawCosine(t *testing.T) {
	c := linkedWorld(t)
	m := NewMatcher(c, DefaultOptions())
	for a := 0; a < c.Len(); a++ {
		for b := 0; b < c.Len(); b++ {
			want := m.tfidf.Cosine(c.Tokens(a, m.opts.Tokenize), c.Tokens(b, m.opts.Tokenize))
			if got := m.ValueSim(a, b); got != want {
				t.Fatalf("ValueSim(%d,%d)=%v, raw cosine %v", a, b, got, want)
			}
		}
	}
}

// TestDecideValueMatchesDecide pins the parallel engine's commit hook:
// DecideValue with the pair's own ValueSim is Decide, bit for bit.
func TestDecideValueMatchesDecide(t *testing.T) {
	c := linkedWorld(t)
	m := NewMatcher(c, DefaultOptions())
	cl := NewClustersFor(c)
	cl.Merge(1, 3) // resolve the countries so neighbor evidence exists
	for a := 0; a < c.Len(); a++ {
		for b := a + 1; b < c.Len(); b++ {
			ws, wm := m.Decide(a, b, cl)
			gs, gm := m.DecideValue(a, b, m.ValueSim(a, b), cl)
			if ws != gs || wm != gm {
				t.Fatalf("DecideValue(%d,%d)=(%v,%v), Decide=(%v,%v)", a, b, gs, gm, ws, wm)
			}
		}
	}
}

// TestCanMatch pins the gate rule at its edges and against DecideValue:
// a v the gate refuses never matches, even with full neighbor evidence,
// and a v it admits does match there. With NeighborWeight 0 the
// threshold itself is the gate.
func TestCanMatch(t *testing.T) {
	c := linkedWorld(t)
	valueOnly := DefaultOptions()
	valueOnly.NeighborWeight = 0
	for _, opts := range []Options{DefaultOptions(), valueOnly} {
		m := NewMatcher(c, opts)
		cl := NewClustersFor(c)
		cl.Merge(1, 3) // the two Paris descriptions' only neighbors resolve
		if s := m.NeighborSim(0, 2, cl.UF()); s != 1 {
			t.Fatalf("NeighborSim(paris, paris) = %v, want full evidence", s)
		}
		gate := max(opts.MinValueSim, opts.Threshold-opts.NeighborWeight)
		for _, row := range []struct {
			v    float64
			want bool
		}{
			{0, false}, {math.Nextafter(gate, 0), false}, {gate, true}, {0.5, true}, {1, true},
		} {
			if got := m.CanMatch(row.v); got != row.want {
				t.Errorf("NeighborWeight %v: CanMatch(%v) = %v, want %v", opts.NeighborWeight, row.v, got, row.want)
			}
		}
		for i := 0; i <= 1000; i++ {
			v := float64(i) / 1000
			if _, matched := m.DecideValue(0, 2, v, cl); matched != m.CanMatch(v) {
				t.Fatalf("NeighborWeight %v, v %v: DecideValue matched %v at full neighbor evidence, CanMatch %v",
					opts.NeighborWeight, v, matched, m.CanMatch(v))
			}
		}
	}
}

// TestExplicitZeroOptions is the regression suite for the zero-value
// config trap: zeroing a field of the normalized DefaultOptions must
// survive NewMatcher, while the zero Options still gets defaults.
func TestExplicitZeroOptions(t *testing.T) {
	c := linkedWorld(t)
	opts := DefaultOptions()
	opts.NeighborWeight = 0
	opts.MinValueSim = 0
	m := NewMatcher(c, opts)
	if got := m.Options(); got.NeighborWeight != 0 || got.MinValueSim != 0 {
		t.Fatalf("explicit zeros overwritten: %+v", got)
	}
	// With NeighborWeight 0 the combined score is pure value
	// similarity, even with resolved neighbors.
	cl := NewClustersFor(c)
	cl.Merge(1, 3)
	if s := m.Score(0, 2, cl.UF()); s != m.ValueSim(0, 2) {
		t.Errorf("NeighborWeight=0 still adds neighbor evidence: score=%v valueSim=%v", s, m.ValueSim(0, 2))
	}
	// WithDefaults fills unset fields exactly once and is idempotent.
	d := (Options{}).WithDefaults()
	if d.Threshold != 0.35 || d.NeighborWeight != 0.50 || d.MinValueSim != 0.12 || !d.Normalized {
		t.Fatalf("zero Options no longer defaults: %+v", d)
	}
	if again := d.WithDefaults(); again != d {
		t.Errorf("WithDefaults not idempotent: %+v vs %+v", again, d)
	}
	// A normalized options value with a zero Tokenize still gets the
	// tokenizer default — the zero tokenizer extracts nothing.
	z := DefaultOptions()
	z.Tokenize = tokenize.Options{}
	if got := NewMatcher(c, z).Options().Tokenize; got.MinLength == 0 {
		t.Error("zero Tokenize not defaulted on normalized options")
	}
}

// TestMatcherConcurrentValueSim exercises the property the parallel
// matching engine relies on: after construction, concurrent ValueSim
// and Decide calls are race-free (run under -race in CI).
func TestMatcherConcurrentValueSim(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(31, 80, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(w.Collection, DefaultOptions())
	n := w.Collection.Len()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a, b := (g*131+i)%n, (g*17+i*7+1)%n
				v := m.ValueSim(a, b)
				if v < 0 || v > 1 {
					t.Errorf("ValueSim out of range: %v", v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
