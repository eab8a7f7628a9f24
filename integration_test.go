package minoaner_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/rdf"
)

const kbA = `
<http://a.org/Paris> <http://a.org/name> "Paris city of lights" .
<http://a.org/Paris> <http://a.org/country> <http://a.org/France> .
<http://a.org/France> <http://a.org/name> "France republic" .
<http://a.org/Berlin> <http://a.org/name> "Berlin capital" .
`

const kbB = `
<http://b.org/paris_fr> <http://b.org/label> "Paris lights" .
<http://b.org/paris_fr> <http://b.org/in> <http://b.org/france_eu> .
<http://b.org/france_eu> <http://b.org/label> "France republic" .
<http://b.org/munich> <http://b.org/label> "Munich bavaria" .
`

func TestPipelineEndToEnd(t *testing.T) {
	p := minoaner.New(minoaner.Defaults())
	if err := p.LoadKB("a", strings.NewReader(kbA)); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadKB("b", strings.NewReader(kbB)); err != nil {
		t.Fatal(err)
	}
	if p.NumDescriptions() != 6 {
		t.Fatalf("descriptions=%d, want 6", p.NumDescriptions())
	}
	res, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, m := range res.Matches {
		// Normalize direction: key by KB-a URI.
		a, b := m.A, m.B
		if a.KB != "a" {
			a, b = b, a
		}
		found[a.URI] = b.URI
	}
	if found["http://a.org/Paris"] != "http://b.org/paris_fr" {
		t.Errorf("Paris not matched: %v", found)
	}
	if found["http://a.org/France"] != "http://b.org/france_eu" {
		t.Errorf("France not matched: %v", found)
	}
	if _, bad := found["http://a.org/Berlin"]; bad {
		t.Errorf("Berlin spuriously matched: %v", found)
	}
	if res.Stats.Matches != len(res.Matches) || res.Stats.Comparisons == 0 {
		t.Errorf("stats inconsistent: %+v", res.Stats)
	}
	// SameAs output parses back as RDF.
	triples, err := rdf.ParseString(res.SameAs())
	if err != nil {
		t.Fatalf("SameAs output invalid: %v", err)
	}
	if len(triples) != len(res.Matches) {
		t.Errorf("SameAs has %d triples, want %d", len(triples), len(res.Matches))
	}
}

func TestPipelineBudget(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(61, 200, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int) *minoaner.Result {
		p := minoaner.New(minoaner.Defaults())
		for _, name := range []string{"alpha", "betaKB"} {
			doc, err := rdf.WriteString(w.Triples(name))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.ResolveBudget(budget)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(0)
	small := run(100)
	if small.Stats.Comparisons > 100 {
		t.Errorf("budget exceeded: %d", small.Stats.Comparisons)
	}
	if full.Stats.Matches < small.Stats.Matches {
		t.Errorf("full run found fewer matches (%d) than budgeted (%d)",
			full.Stats.Matches, small.Stats.Matches)
	}
	// Progressive quality: the small budget already finds a large share
	// of the matches the full run confirms.
	if small.Stats.Matches*2 < full.Stats.Matches*1 {
		ratio := float64(small.Stats.Matches) / float64(full.Stats.Matches)
		if ratio < 0.3 {
			t.Errorf("first 100 comparisons found only %.2f of all matches", ratio)
		}
	}
}

func TestPipelineQualityAgainstTruth(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(62, 250, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	p := minoaner.New(minoaner.Defaults())
	for _, name := range []string{"alpha", "betaKB"} {
		doc, err := rdf.WriteString(w.Triples(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild a collection aligned with the pipeline's loading order to
	// score against ground truth via URI identity.
	c := kb.NewCollection()
	c.LoadTriples("alpha", w.Triples("alpha"))
	c.LoadTriples("betaKB", w.Triples("betaKB"))
	g := kb.NewGroundTruth()
	g.LoadSameAs(c, w.SameAsTriples())
	tp, fp := 0, 0
	for _, m := range res.Matches {
		a, okA := c.IDOf(m.A.KB, m.A.URI)
		b, okB := c.IDOf(m.B.KB, m.B.URI)
		if !okA || !okB {
			t.Fatalf("match names unknown description: %+v", m)
		}
		if g.Match(a, b) {
			tp++
		} else {
			fp++
		}
	}
	total := g.CrossKBMatchingPairs(c)
	recall := float64(tp) / float64(total)
	precision := float64(tp) / float64(tp+fp)
	if recall < 0.75 {
		t.Errorf("recall=%.3f (tp=%d total=%d)", recall, tp, total)
	}
	if precision < 0.7 {
		t.Errorf("precision=%.3f (tp=%d fp=%d)", precision, tp, fp)
	}
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(63, 120, datagen.Center(), datagen.Periphery()))
	if err != nil {
		t.Fatal(err)
	}
	load := func(cfg minoaner.Config) *minoaner.Result {
		p := minoaner.New(cfg)
		for _, name := range []string{"alpha", "betaKB"} {
			doc, _ := rdf.WriteString(w.Triples(name))
			if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seqCfg := minoaner.Defaults()
	seqCfg.Workers = 1
	seq := load(seqCfg)

	parCfg := minoaner.Defaults()
	parCfg.Workers = 4
	par := load(parCfg)

	if seq.Stats != par.Stats {
		t.Errorf("stats differ: seq=%+v par=%+v", seq.Stats, par.Stats)
	}
	if len(seq.Matches) != len(par.Matches) {
		t.Fatalf("%d matches, want %d", len(par.Matches), len(seq.Matches))
	}
	for i := range seq.Matches {
		if seq.Matches[i] != par.Matches[i] {
			t.Errorf("match %d = %+v, want %+v", i, par.Matches[i], seq.Matches[i])
		}
	}
}

// TestPipelineErrors: resolving nothing, malformed N-Triples and a
// missing file fail; TestErrBadBatch pins the empty-name errors.
func TestPipelineErrors(t *testing.T) {
	p := minoaner.New(minoaner.Defaults())
	if _, err := p.Resolve(); err == nil {
		t.Error("empty pipeline resolved")
	}
	if err := p.LoadKB("x", strings.NewReader("garbage")); err == nil {
		t.Error("malformed N-Triples accepted")
	}
	if err := p.LoadKBFile("x", filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAddDescriptionAndFiles(t *testing.T) {
	p := minoaner.New(minoaner.Defaults())
	err := p.AddDescription("k1", "http://k1/x", map[string]string{"name": "turing award"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddDescription("k2", "http://k2/y", map[string]string{"label": "turing award"}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matches != 1 {
		t.Errorf("matches=%d, want 1", res.Stats.Matches)
	}
	// LoadKBFile round trip.
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.nt")
	if err := os.WriteFile(path, []byte(kbA), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := minoaner.New(minoaner.Defaults())
	if err := p2.LoadKBFile("a", path); err != nil {
		t.Fatal(err)
	}
	if p2.NumDescriptions() != 3 {
		t.Errorf("descriptions=%d, want 3", p2.NumDescriptions())
	}
}

func TestPipelineLoadQuads(t *testing.T) {
	p := minoaner.New(minoaner.Defaults())
	doc := `<http://a/x> <http://a/name> "turing award" <http://graphs/a> .
<http://b/x> <http://b/label> "turing award" <http://graphs/b> .
`
	if err := p.LoadQuads("default", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	res, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.KBs != 2 || res.Stats.Matches != 1 {
		t.Errorf("stats=%+v", res.Stats)
	}
	if err := p.LoadQuads("", strings.NewReader("")); err == nil {
		t.Error("empty default KB accepted")
	}
}
