package minoaner_test

import (
	"fmt"
	"testing"

	minoaner "repro"
)

// evictEach evicts every listed description not yet gone, one wave
// each, and records it in gone. Every wave compacts before its pass, so
// after each one the session's collection must hold no tombstone.
func evictEach(t *testing.T, s *minoaner.Session, descs []minoaner.Description, gone map[string]bool) {
	t.Helper()
	for _, d := range descs {
		r := minoaner.Ref{KB: d.KB, URI: d.URI}
		if gone[refKey(r)] {
			continue
		}
		if err := s.Evict([]minoaner.Ref{r}); err != nil {
			t.Fatal(err)
		}
		gone[refKey(r)] = true
		if n := s.Tombstones(); n != 0 {
			t.Fatalf("evicting %v left %d tombstones in the session's collection", r, n)
		}
	}
}

// TestCompactionEquivalentToFromScratch is the compaction headline
// guarantee at the public API: a session whose internal ids were
// re-based onto a fresh dense space by one eviction wave after another
// resolves to exactly what a from-scratch session over the surviving
// corpus produces, for any worker count. Ingesting afterwards must also
// work: the rebuilt front-end state keeps streaming.
func TestCompactionEquivalentToFromScratch(t *testing.T) {
	w := hardSessionWorld(t, 681, 120)
	all := streamDescriptions(w)
	seedN := len(all) / 2
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := minoaner.Defaults()
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
			evictEach(t, s, all[:seedN/4], gone)
			// The session must keep streaming over the re-based id space.
			if err := s.Ingest(all[seedN:]); err != nil {
				t.Fatal(err)
			}
			got, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}

			p2 := minoaner.New(cfg)
			if err := p2.Add(survivors(all, gone)); err != nil {
				t.Fatal(err)
			}
			want, err := p2.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "compaction-vs-scratch", want, got)
		})
	}
}

// TestCompactionPreservesSpentMatches pins the trace remap and the Ref
// stability property: matches confirmed before a run of eviction waves
// survive their compactions with identical references — compaction
// moves internal ids only, never the KB + URI identity any result is
// reported under.
func TestCompactionPreservesSpentMatches(t *testing.T) {
	w := hardSessionWorld(t, 682, 130)
	all := streamDescriptions(w)
	cfg := minoaner.Defaults()
	cfg.Workers = 4

	p := minoaner.New(cfg)
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := s.Resume(80)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Matches) == 0 {
		t.Fatal("no matches before the evictions — workload too easy for this test")
	}
	gone := make(map[string]bool)
	evictEach(t, s, all[:len(all)*3/10], gone)
	final, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	surviving := 0
	for _, m := range mid.Matches {
		if gone[refKey(m.A)] || gone[refKey(m.B)] {
			continue
		}
		surviving++
		found := false
		for _, m2 := range final.Matches {
			if m2.A == m.A && m2.B == m.B {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("surviving match %v == %v lost across the compactions", m.A, m.B)
		}
	}
	if surviving == 0 {
		t.Fatal("the evictions took every early match — workload too easy for this test")
	}
	// Every reported reference must resolve in the compacted snapshot:
	// lookups go KB + URI → current internal id, so a stale mapping
	// would surface here.
	snap := s.Snapshot()
	for _, c := range final.Clusters {
		for _, r := range c {
			if _, ok := snap.Cluster(r.KB, r.URI); !ok {
				t.Fatalf("reference %v unresolvable after compaction", r)
			}
		}
	}
}

// TestCompactionTTLDefaultOn pins compaction under a sliding window: a
// TTL session needs no configuration to drop what expired — every wave
// that slides the window compacts before its pass, so the session's
// collection holds the window and nothing else. The window equivalence
// oracle of TestEvictTTL already ran above.
func TestCompactionTTLDefaultOn(t *testing.T) {
	w := hardSessionWorld(t, 683, 120)
	all := streamDescriptions(w)
	cfg := minoaner.Defaults()
	cfg.TTL = 1
	p := minoaner.New(cfg)
	if err := p.Add(all[:len(all)/3]); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]minoaner.Description{all[len(all)/3 : 2*len(all)/3], all[2*len(all)/3:]} {
		if err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if n := s.Tombstones(); n != 0 {
			t.Fatalf("a window slide left %d tombstones in the session's collection", n)
		}
		if got := p.NumDescriptions(); got != len(batch) {
			t.Fatalf("the window holds %d descriptions, want the last batch's %d", got, len(batch))
		}
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededSessionSurvivesCompaction pins ErrSessionClosed's
// promise across compaction: a session superseded by a newer Start
// keeps resolving its frozen view. The successor's first departure
// wave re-bases the pipeline onto a compacted collection; the
// superseded session's trace ids belong to the collection it was built
// over, so it keeps reading that one, and from then on nothing the
// successor does — more evictions, ingests (merges into descriptions
// both sessions hold included), resolution — changes the superseded
// session's Resume or Snapshot.
func TestSupersededSessionSurvivesCompaction(t *testing.T) {
	w := hardSessionWorld(t, 681, 120)
	all := streamDescriptions(w)
	run := func(more bool) (*minoaner.Result, *minoaner.Snapshot) {
		t.Helper()
		p := minoaner.New(minoaner.Defaults())
		half := len(all) / 2
		if err := p.Add(all[:half]); err != nil {
			t.Fatal(err)
		}
		a, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Resume(50); err != nil {
			t.Fatal(err)
		}
		b, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		evictEach(t, b, all[:1], map[string]bool{}) // the first departure wave
		if more {
			evictEach(t, b, all[1:half/4], map[string]bool{})
			if err := b.Ingest(all[half:]); err != nil {
				t.Fatal(err)
			}
			merge := all[half-1]
			if err := b.Ingest([]minoaner.Description{{KB: merge.KB, URI: merge.URI,
				Attrs: []minoaner.Attribute{{Predicate: "note", Value: "late merge"}}}}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Resume(0); err != nil {
				t.Fatal(err)
			}
		}
		res, err := a.Resume(0)
		if err != nil {
			t.Fatal(err)
		}
		return res, a.Snapshot()
	}
	got, gotSn := run(true)
	want, wantSn := run(false)
	sameResult(t, "superseded Resume", want, got)
	sameResult(t, "superseded Snapshot", wantSn.Result(), gotSn.Result())
	for _, d := range all {
		wc, wok := wantSn.Cluster(d.KB, d.URI)
		gc, gok := gotSn.Cluster(d.KB, d.URI)
		if wok != gok || fmt.Sprint(wc) != fmt.Sprint(gc) {
			t.Fatalf("Cluster(%s, %s) = %v, %v; want %v, %v", d.KB, d.URI, gc, gok, wc, wok)
		}
	}
}
