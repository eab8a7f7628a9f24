package minoaner_test

import (
	"fmt"
	"testing"

	minoaner "repro"
)

// forceDensity evicts live descriptions (skipping the keep-set) until
// the session has compacted at least once, returning the evicted
// reference set. Fails the test if the corpus drains first — the
// threshold was never reached, meaning compaction is broken.
func forceCompaction(t *testing.T, s *minoaner.Session, all []minoaner.Description, gone map[string]bool) {
	t.Helper()
	for _, d := range all {
		if s.Compactions() > 0 {
			return
		}
		r := minoaner.Ref{KB: d.KB, URI: d.URI}
		if gone[refKey(r)] {
			continue
		}
		if err := s.Evict([]minoaner.Ref{r}); err != nil {
			t.Fatal(err)
		}
		gone[refKey(r)] = true
	}
	t.Fatal("corpus drained without a compaction epoch")
}

// TestCompactionEquivalentToFromScratch is the epoch headline
// guarantee at the public API: a session that crossed one or more
// compaction epochs — its internal ids re-based onto a fresh dense
// space — resolves to exactly what a from-scratch session over the
// surviving corpus produces, for any worker count. Ingesting after the
// epoch must also work: the rebuilt front-end state keeps streaming.
func TestCompactionEquivalentToFromScratch(t *testing.T) {
	w := hardSessionWorld(t, 681, 120)
	all := streamDescriptions(w)
	seedN := len(all) / 2
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.Workers = workers
			cfg.CompactionThreshold = 0.25

			p := minoaner.New(cfg)
			if err := p.Add(all[:seedN]); err != nil {
				t.Fatal(err)
			}
			s, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			gone := make(map[string]bool)
			forceCompaction(t, s, all[:seedN], gone)
			if s.Compactions() == 0 {
				t.Fatal("threshold 0.25 never compacted")
			}
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
// stability property: matches confirmed before a compaction epoch
// survive it with identical references — the epoch moves internal ids
// only, never the KB + URI identity any result is reported under.
func TestCompactionPreservesSpentMatches(t *testing.T) {
	w := hardSessionWorld(t, 682, 130)
	all := streamDescriptions(w)
	cfg := minoaner.Defaults()
	cfg.Workers = 4
	cfg.CompactionThreshold = 0.3

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
		t.Fatal("no matches before the epoch — workload too easy for this test")
	}
	gone := make(map[string]bool)
	forceCompaction(t, s, all, gone)
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
			t.Fatalf("surviving match %v == %v lost across a compaction epoch", m.A, m.B)
		}
	}
	if surviving == 0 {
		t.Fatal("compaction evicted every early match — workload too easy for this test")
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

// TestCompactionTTLDefaultOn pins the default: a TTL session compacts
// at tombstone density ½ without any configuration — the sliding
// window is exactly the workload that otherwise accretes dead ids
// without bound. The window equivalence oracle of TestEvictTTL already
// ran above; here the epoch counter proves the default fired.
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
	if err := s.Ingest(all[len(all)/3 : 2*len(all)/3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(all[2*len(all)/3:]); err != nil {
		t.Fatal(err)
	}
	if s.Compactions() == 0 {
		t.Fatal("TTL session never compacted under the default threshold")
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionDisabled pins the off switches: a negative threshold
// disables compaction even under TTL, and the zero default disables it
// for sessions without TTL no matter how dense the tombstones get.
func TestCompactionDisabled(t *testing.T) {
	w := hardSessionWorld(t, 684, 80)
	all := streamDescriptions(w)

	cfg := minoaner.Defaults()
	cfg.TTL = 1
	cfg.CompactionThreshold = -1
	p := minoaner.New(cfg)
	if err := p.Add(all[:len(all)/2]); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(all[len(all)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(all[:10]); err != nil { // slides the window again
		t.Fatal(err)
	}
	if s.Compactions() != 0 {
		t.Fatal("negative threshold still compacted")
	}

	cfg2 := minoaner.Defaults()
	p2 := minoaner.New(cfg2)
	if err := p2.Add(all); err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Start()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range all[:len(all)*3/4] {
		if err := s2.Evict([]minoaner.Ref{{KB: d.KB, URI: d.URI}}); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Compactions() != 0 {
		t.Fatal("non-TTL session compacted under the zero default")
	}
	if _, err := s2.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededSessionSurvivesCompaction pins ErrSessionClosed's
// promise across a compaction epoch: a session superseded by a newer
// Start keeps resolving its frozen view after the current session
// re-bases the pipeline onto a compacted collection. The superseded
// session's trace ids belong to the collection it was built over, so
// its Resume and Snapshot must read that one. Its results must equal
// those of the same run with compaction switched off, where the
// evictions land in the same shared collection and nothing re-bases.
func TestSupersededSessionSurvivesCompaction(t *testing.T) {
	w := hardSessionWorld(t, 681, 120)
	all := streamDescriptions(w)
	gone := make(map[string]bool)
	run := func(threshold float64) (*minoaner.Result, *minoaner.Snapshot) {
		t.Helper()
		cfg := minoaner.Defaults()
		cfg.CompactionThreshold = threshold
		p := minoaner.New(cfg)
		if err := p.Add(all); err != nil {
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
		if threshold > 0 {
			forceCompaction(t, b, all, gone)
		} else {
			for _, d := range all {
				if r := (minoaner.Ref{KB: d.KB, URI: d.URI}); gone[refKey(r)] {
					if err := b.Evict([]minoaner.Ref{r}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if b.Compactions() != 0 {
				t.Fatal("negative threshold compacted")
			}
		}
		res, err := a.Resume(0)
		if err != nil {
			t.Fatal(err)
		}
		return res, a.Snapshot()
	}
	got, gotSn := run(0.25)
	want, wantSn := run(-1)
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
