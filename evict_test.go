package minoaner_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/rdf"
)

// key identifies a description by reference in the tests' bookkeeping.
func refKey(r minoaner.Ref) string { return r.KB + "\x00" + r.URI }

// survivors filters a description stream by an evicted-reference set,
// preserving order — the corpus a from-scratch oracle loads.
func survivors(all []minoaner.Description, gone map[string]bool) []minoaner.Description {
	var out []minoaner.Description
	for _, d := range all {
		if !gone[refKey(minoaner.Ref{KB: d.KB, URI: d.URI})] {
			out = append(out, d)
		}
	}
	return out
}

// TestEvictEquivalentToFromScratch is the deletion headline guarantee,
// end to end at the public API: for any interleaving of Ingest and
// Evict before comparisons are spent, any worker count, and any
// budget, resolving the session produces exactly what a from-scratch
// session over the surviving corpus produces — the same matches in the
// same order with the same scores and flags, the same statistics, and
// the same clusters.
func TestEvictEquivalentToFromScratch(t *testing.T) {
	w := hardSessionWorld(t, 671, 140)
	all := streamDescriptions(w)
	seedN := len(all) / 3
	for _, workers := range []int{1, 4} {
		for _, budget := range []int{7, 0} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				cfg := minoaner.EnvDefaults()
				cfg.Workers = workers

				p := minoaner.New(cfg)
				if err := p.Add(all[:seedN]); err != nil {
					t.Fatal(err)
				}
				s, err := p.Start()
				if err != nil {
					t.Fatal(err)
				}
				gone := make(map[string]bool)
				evict := func(refs []minoaner.Ref) {
					t.Helper()
					if err := s.Evict(refs); err != nil {
						t.Fatal(err)
					}
					for _, r := range refs {
						gone[refKey(r)] = true
					}
				}
				ref := func(d minoaner.Description) minoaner.Ref {
					return minoaner.Ref{KB: d.KB, URI: d.URI}
				}

				// Interleave: evict from the seed, ingest, evict across
				// both generations, ingest the rest, evict again.
				evict([]minoaner.Ref{ref(all[2]), ref(all[9]), ref(all[10])})
				if err := s.Ingest(all[seedN : 2*seedN]); err != nil {
					t.Fatal(err)
				}
				evict([]minoaner.Ref{ref(all[0]), ref(all[seedN+3]), ref(all[seedN+8])})
				if err := s.Ingest(all[2*seedN:]); err != nil {
					t.Fatal(err)
				}
				evict([]minoaner.Ref{ref(all[2*seedN+5]), ref(all[17])})
				got, err := s.Resume(budget)
				if err != nil {
					t.Fatal(err)
				}

				// From-scratch oracle over a corpus that never held the
				// evicted descriptions.
				p2 := minoaner.New(cfg)
				if err := p2.Add(survivors(all, gone)); err != nil {
					t.Fatal(err)
				}
				s2, err := p2.Start()
				if err != nil {
					t.Fatal(err)
				}
				want, err := s2.Resume(budget)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "evict-vs-scratch", want, got)
			})
		}
	}
}

// TestEvictKBEquivalent evicts an entire knowledge base — the stale
// dump case — which flips the surviving corpus from clean–clean to
// dirty ER. The session must end up exactly where a from-scratch
// session over the single remaining KB does.
func TestEvictKBEquivalent(t *testing.T) {
	w := hardSessionWorld(t, 672, 100)
	all := streamDescriptions(w)
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 4

	p := minoaner.New(cfg)
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EvictKB("betaKB"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}

	var alphaOnly []minoaner.Description
	for _, d := range all {
		if d.KB == "alpha" {
			alphaOnly = append(alphaOnly, d)
		}
	}
	p2 := minoaner.New(cfg)
	if err := p2.Add(alphaOnly); err != nil {
		t.Fatal(err)
	}
	want, err := p2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "evict-kb", want, got)
	if got.Stats.KBs != 1 {
		t.Fatalf("stats report %d KBs after evicting one of two", got.Stats.KBs)
	}
}

// TestEvictEdgeCases pins the degenerate eviction paths: unknown
// references, double evictions, duplicate references in one call,
// evicting a description a prior ingest merged into, unknown KBs, and
// eviction on a superseded session are all clean no-ops or typed
// errors — never corrupted state.
func TestEvictEdgeCases(t *testing.T) {
	w := hardSessionWorld(t, 673, 60)
	all := streamDescriptions(w)
	p := minoaner.New(minoaner.EnvDefaults())
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

// TestEvictEverything empties the session: every queue drains, the
// result holds no match and no cluster, the comparisons already spent
// stay counted (Stats.Comparisons never falls), and the emptied session
// accepts a fresh corpus.
func TestEvictEverything(t *testing.T) {
	w := hardSessionWorld(t, 674, 50)
	all := streamDescriptions(w)
	p := minoaner.New(minoaner.EnvDefaults())
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
	p := minoaner.New(minoaner.EnvDefaults())
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
	cfg := minoaner.EnvDefaults()
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
	cfg2 := minoaner.EnvDefaults()
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

// TestInterleavedIngestEvictResume is the mid-session property suite:
// across Resume legs separated by evictions and ingests, matches among
// surviving descriptions are monotonic, a drained session stays
// drained, and a zero Pending means a zero next leg.
func TestInterleavedIngestEvictResume(t *testing.T) {
	w := hardSessionWorld(t, 676, 140)
	all := streamDescriptions(w)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := minoaner.EnvDefaults()
			cfg.Workers = workers
			p := minoaner.New(cfg)
			if err := p.Add(all[:len(all)/2]); err != nil {
				t.Fatal(err)
			}
			s, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			mid, err := s.Resume(60)
			if err != nil {
				t.Fatal(err)
			}

			gone := map[string]bool{}
			var evictRefs []minoaner.Ref
			for _, d := range []minoaner.Description{all[1], all[4], all[11], all[22]} {
				r := minoaner.Ref{KB: d.KB, URI: d.URI}
				evictRefs = append(evictRefs, r)
				gone[refKey(r)] = true
			}
			if err := s.Evict(evictRefs); err != nil {
				t.Fatal(err)
			}
			leg2, err := s.Resume(40)
			if err != nil {
				t.Fatal(err)
			}
			// Monotonic: every pre-evict match among survivors is still
			// reported after the evict leg.
			surviving := 0
			for _, m := range mid.Matches {
				if gone[refKey(m.A)] || gone[refKey(m.B)] {
					continue
				}
				surviving++
				found := false
				for _, m2 := range leg2.Matches {
					if m2.A == m.A && m2.B == m.B {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("surviving match %v == %v lost after eviction", m.A, m.B)
				}
			}
			if surviving == 0 {
				t.Fatal("eviction destroyed every early match — workload too easy")
			}

			if err := s.Ingest(all[len(all)/2:]); err != nil {
				t.Fatal(err)
			}
			final, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range leg2.Matches {
				found := false
				for _, m2 := range final.Matches {
					if m2.A == m.A && m2.B == m.B {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("match %v == %v lost across an ingest", m.A, m.B)
				}
			}
			// Drained: a zero-pending session spends nothing more.
			if s.Pending() == 0 {
				again, err := s.Resume(0)
				if err != nil {
					t.Fatal(err)
				}
				if again.Stats.Comparisons != final.Stats.Comparisons {
					t.Fatal("zero Pending but Resume executed comparisons")
				}
			}
			again, err := s.Resume(7)
			if err != nil {
				t.Fatal(err)
			}
			if again.Stats.Comparisons != final.Stats.Comparisons {
				t.Fatal("drained session executed more comparisons")
			}
		})
	}
}

// TestPostStartMutationStaysInSync is the regression for the silent
// desynchronization bug: mutating the pipeline after Start — Add,
// AddDescription, LoadKB — must route through the live session (the
// equivalent of Ingest), so the session's statistics, matcher, and
// queue reflect the mutation; on a superseded session the direct
// streaming calls refuse instead.
func TestPostStartMutationStaysInSync(t *testing.T) {
	w := hardSessionWorld(t, 677, 100)
	all := streamDescriptions(w)
	half := len(all) / 2

	// Path A: Pipeline.Add after Start ≡ Session.Ingest.
	p := minoaner.New(minoaner.EnvDefaults())
	if err := p.Add(all[:half]); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(all[half:]); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Descriptions != len(all) {
		t.Fatalf("post-Start Add left the session at %d descriptions, want %d",
			got.Stats.Descriptions, len(all))
	}
	pi := minoaner.New(minoaner.EnvDefaults())
	if err := pi.Add(all[:half]); err != nil {
		t.Fatal(err)
	}
	si, err := pi.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := si.Ingest(all[half:]); err != nil {
		t.Fatal(err)
	}
	want, err := si.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-start-add", want, got)

	// Path B: LoadKB after Start ≡ IngestKB, and AddDescription syncs.
	doc, err := rdf.WriteString(w.Triples("betaKB"))
	if err != nil {
		t.Fatal(err)
	}
	alphaDoc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	pl := minoaner.New(minoaner.EnvDefaults())
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
