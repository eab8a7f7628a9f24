package minoaner_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/rdf"
)

// key identifies a description by reference in the tests' bookkeeping.
func refKey(r minoaner.Ref) string { return r.KB + "\x00" + r.URI }

// TestEvictEdgeCases pins the degenerate eviction paths: unknown
// references, double evictions, duplicate references in one call,
// evicting a description a prior ingest merged into, unknown KBs, and
// eviction on a superseded session are all clean no-ops or typed
// errors — never corrupted state.
func TestEvictEdgeCases(t *testing.T) {
	w := hardSessionWorld(t, 673, 60)
	all := streamDescriptions(w)
	p := minoaner.New(minoaner.Defaults())
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumDescriptions()

	// Empty evictions are no-ops.
	if err := s.Evict(nil); err != nil {
		t.Errorf("empty evict: %v", err)
	}
	// An unknown reference is a typed error and nothing is evicted,
	// even when other references in the batch are valid.
	bad := []minoaner.Ref{{KB: all[0].KB, URI: all[0].URI}, {KB: "alpha", URI: "http://nosuch/x"}}
	if err := s.Evict(bad); !errors.Is(err, minoaner.ErrUnknownDescription) {
		t.Errorf("unknown ref: got %v, want ErrUnknownDescription", err)
	}
	if p.NumDescriptions() != before {
		t.Fatal("failed evict still removed descriptions")
	}
	// Duplicate references within one call collapse to one eviction.
	dup := minoaner.Ref{KB: all[3].KB, URI: all[3].URI}
	if err := s.Evict([]minoaner.Ref{dup, dup}); err != nil {
		t.Errorf("duplicate refs in one call: %v", err)
	}
	if p.NumDescriptions() != before-1 {
		t.Fatalf("duplicate refs evicted %d descriptions, want 1", before-p.NumDescriptions())
	}
	// Evicting the same reference again is unknown now.
	if err := s.Evict([]minoaner.Ref{dup}); !errors.Is(err, minoaner.ErrUnknownDescription) {
		t.Errorf("double evict: got %v, want ErrUnknownDescription", err)
	}
	// A description extended by a later ingest evicts as one unit.
	target := all[5]
	if err := s.Ingest([]minoaner.Description{{
		KB: target.KB, URI: target.URI,
		Attrs: []minoaner.Attribute{{Predicate: "late", Value: "freshly merged note"}},
	}}); err != nil {
		t.Fatal(err)
	}
	if p.NumDescriptions() != before-1 {
		t.Fatal("merge ingest changed the description count")
	}
	if err := s.Evict([]minoaner.Ref{{KB: target.KB, URI: target.URI}}); err != nil {
		t.Errorf("evicting a merged description: %v", err)
	}
	if p.NumDescriptions() != before-2 {
		t.Fatal("merged description did not evict as one unit")
	}
	// Unknown KB names are typed errors; an emptied KB is a no-op.
	if err := s.EvictKB("nosuchkb"); !errors.Is(err, minoaner.ErrUnknownKB) {
		t.Errorf("unknown KB: got %v, want ErrUnknownKB", err)
	}
	if err := s.EvictKB("betaKB"); err != nil {
		t.Fatal(err)
	}
	if err := s.EvictKB("betaKB"); err != nil {
		t.Errorf("evicting an already-empty KB: %v", err)
	}
	// The session still resolves its surviving corpus.
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}

	// A superseded session refuses to evict.
	s2, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Evict([]minoaner.Ref{{KB: all[1].KB, URI: all[1].URI}}); err == nil {
		t.Error("evict on a superseded session accepted")
	}
	if err := s.EvictKB("alpha"); err == nil {
		t.Error("EvictKB on a superseded session accepted")
	}
	// all[2] is an alpha description untouched by the evictions above.
	if err := s2.Evict([]minoaner.Ref{{KB: all[2].KB, URI: all[2].URI}}); err != nil {
		t.Errorf("current session refused to evict: %v", err)
	}
}

// TestEvictKBAfterItExpired: a KB whose every description slid out of
// a TTL window stays a KB the session knows, although the wave that
// expired it compacted its ids away. EvictKB of it is the documented
// clean no-op, not ErrUnknownKB, and Stats.KBs counts only the KBs
// that still hold live descriptions.
func TestEvictKBAfterItExpired(t *testing.T) {
	w := hardSessionWorld(t, 673, 60)
	var alpha, beta []minoaner.Description
	for _, d := range streamDescriptions(w) {
		if d.KB == "betaKB" {
			beta = append(beta, d)
		} else {
			alpha = append(alpha, d)
		}
	}
	cfg := minoaner.Defaults()
	cfg.TTL = 1
	p := minoaner.New(cfg)
	if err := p.Add(beta); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(alpha[:3]); err != nil { // betaKB, batch 0, expires
		t.Fatal(err)
	}
	if n := p.NumDescriptions(); n != 3 {
		t.Fatalf("the window holds %d descriptions, want alpha's 3", n)
	}
	if err := s.EvictKB("betaKB"); err != nil {
		t.Fatalf("evicting a KB that expired to empty: %v", err)
	}
	if err := s.EvictKB("nosuchkb"); !errors.Is(err, minoaner.ErrUnknownKB) {
		t.Fatalf("unknown KB: got %v, want ErrUnknownKB", err)
	}
	res, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.KBs != 1 {
		t.Fatalf("Stats.KBs = %d with only alpha live, want 1", res.Stats.KBs)
	}
}

// TestEvictEverything empties the session: every queue drains, the
// result holds no match and no cluster, the comparisons already spent
// stay counted (Stats.Comparisons never falls), and the emptied session
// accepts a fresh corpus.
func TestEvictEverything(t *testing.T) {
	w := hardSessionWorld(t, 674, 50)
	all := streamDescriptions(w)
	p := minoaner.New(minoaner.Defaults())
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	spent, err := s.Resume(25)
	if err != nil {
		t.Fatal(err)
	}
	if spent.Stats.Comparisons != 25 {
		t.Fatalf("a 25-comparison leg spent %d", spent.Stats.Comparisons)
	}
	for _, name := range []string{"alpha", "betaKB"} {
		if err := s.EvictKB(name); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.NumDescriptions(); n != 0 {
		t.Fatalf("%d descriptions survive a full eviction", n)
	}
	if pend := s.Pending(); pend != 0 {
		t.Fatalf("emptied session still reports %d pending comparisons", pend)
	}
	res, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Clusters) != 0 || res.Stats.Matches != 0 {
		t.Fatalf("emptied session resolved something: %+v", res.Stats)
	}
	if res.Stats.Comparisons != spent.Stats.Comparisons || res.Stats.DiscoveredCmps != spent.Stats.DiscoveredCmps {
		t.Fatalf("emptied session counts %d comparisons (%d discovered), want the %d (%d) spent before the eviction",
			res.Stats.Comparisons, res.Stats.DiscoveredCmps, spent.Stats.Comparisons, spent.Stats.DiscoveredCmps)
	}
	// Starting over on the same pipeline works once data returns.
	if err := s.Ingest(all[:10]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestEvictThenReingestGolden is the full-cycle regression: a session
// whose corpus is evicted wholesale and then re-ingested must
// reproduce the pinned golden resolution — scores, flags, clusters,
// and statistics bit for bit — even though the re-ingested
// descriptions live under fresh internal ids.
func TestEvictThenReingestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 float bits; GOARCH=%s fuses differently", runtime.GOARCH)
	}
	w := goldenWorld(t)
	batches := make(map[string][]minoaner.Description)
	for id := 0; id < w.Collection.Len(); id++ {
		d := w.Collection.Desc(id)
		batches[d.KB] = append(batches[d.KB], minoaner.Description{
			KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
		})
	}
	p := minoaner.New(minoaner.Defaults())
	for _, name := range []string{"alpha", "betaKB"} {
		if err := p.Add(batches[name]); err != nil {
			t.Fatal(err)
		}
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "betaKB"} {
		if err := s.EvictKB(name); err != nil {
			t.Fatal(err)
		}
	}
	if p.NumDescriptions() != 0 {
		t.Fatal("full eviction left descriptions behind")
	}
	for _, name := range []string{"alpha", "betaKB"} {
		if err := s.Ingest(batches[name]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if digest := resolvedDigest(out); digest != goldenResolvedDigest {
		t.Errorf("evict-then-reingest matches and clusters %s, want golden %s", digest, goldenResolvedDigest)
	}
	if digest := resultDigest(out); digest != goldenClusterDigest {
		t.Errorf("evict-then-reingest digest %s, want golden %s", digest, goldenClusterDigest)
	}
}

// TestEvictTTL pins the sliding-window semantics: with TTL = 2, after
// the i-th ingest batch only the last two batches are live, and the
// session equals a from-scratch session over exactly that window.
func TestEvictTTL(t *testing.T) {
	w := hardSessionWorld(t, 675, 120)
	all := streamDescriptions(w)
	const batches = 4
	batch := func(i int) []minoaner.Description {
		return all[i*len(all)/batches : (i+1)*len(all)/batches]
	}
	cfg := minoaner.Defaults()
	cfg.TTL = 2
	cfg.Workers = 4
	p := minoaner.New(cfg)
	if err := p.Add(batch(0)); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < batches; i++ {
		if err := s.Ingest(batch(i)); err != nil {
			t.Fatal(err)
		}
		lo := i - 1 // window: batches {i-1, i}
		want := 0
		for b := lo; b <= i; b++ {
			want += len(batch(b))
		}
		if got := p.NumDescriptions(); got != want {
			t.Fatalf("after batch %d: %d live descriptions, want window of %d", i, got, want)
		}
	}
	// An ingest that brings nothing is not a batch: the TTL window must
	// not slide, or pollers passing empty feeds would drain the corpus.
	liveBefore := p.NumDescriptions()
	if err := s.Ingest(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestKB("alpha", strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	if got := p.NumDescriptions(); got != liveBefore {
		t.Fatalf("empty ingests slid the TTL window: %d live descriptions, want %d", got, liveBefore)
	}
	got, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: a fresh session over exactly the surviving window.
	cfg2 := minoaner.Defaults()
	cfg2.Workers = 4
	p2 := minoaner.New(cfg2)
	window := append(append([]minoaner.Description(nil), batch(batches-2)...), batch(batches-1)...)
	if err := p2.Add(window); err != nil {
		t.Fatal(err)
	}
	want, err := p2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ttl-window", want, got)
}

// TestPostStartMutationStaysInSync is the regression for the silent
// desynchronization bug: mutating the pipeline after Start —
// AddDescription, LoadKB — must route through the live session (the
// equivalent of Ingest), so the session's statistics reflect the
// mutation; on a superseded session the direct streaming calls refuse
// instead, and the pipeline routes to the current one.
// TestRebuildRuleEquation's ingest rows hold a post-Start Add to the
// same result as Ingest.
func TestPostStartMutationStaysInSync(t *testing.T) {
	w := hardSessionWorld(t, 677, 100)

	// LoadKB and AddDescription after Start reach the session.
	doc, err := rdf.WriteString(w.Triples("betaKB"))
	if err != nil {
		t.Fatal(err)
	}
	alphaDoc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	pl := minoaner.New(minoaner.Defaults())
	if err := pl.LoadKB("alpha", strings.NewReader(alphaDoc)); err != nil {
		t.Fatal(err)
	}
	sl, err := pl.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadKB("betaKB", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if err := pl.AddDescription("gamma", "http://g/1", map[string]string{"p": "solo gamma entry"}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := sl.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.KBs != 3 {
		t.Fatalf("post-Start LoadKB/AddDescription left the session at %d KBs, want 3", res.Stats.KBs)
	}

	// Refusal path: once superseded, the pipeline routes to the new
	// current session and the old session's own calls refuse.
	s2, err := pl.Start()
	if err != nil {
		t.Fatal(err)
	}
	beforeN := pl.NumDescriptions()
	if err := sl.Ingest([]minoaner.Description{{KB: "gamma", URI: "http://g/2"}}); err == nil {
		t.Error("superseded session accepted an ingest")
	}
	if pl.NumDescriptions() != beforeN {
		t.Error("refused ingest still mutated the collection")
	}
	if err := pl.Add([]minoaner.Description{{KB: "gamma", URI: "http://g/3",
		Attrs: []minoaner.Attribute{{Predicate: "p", Value: "third gamma entry"}}}}); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Descriptions != beforeN+1 {
		t.Fatalf("pipeline Add routed to the wrong session: current sees %d descriptions, want %d",
			r2.Stats.Descriptions, beforeN+1)
	}
}
