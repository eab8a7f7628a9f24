package minoaner_test

import (
	"fmt"
	"testing"

	minoaner "repro"
)

// evictEach evicts every listed description not yet gone, each
// followed by a read, and records it in gone. Every read's pass compacts
// first, so after each one the session's collection must hold no
// tombstone.
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
		s.Pending() // the read that makes the pass
		if n := s.Tombstones(); n != 0 {
			t.Fatalf("evicting %v left %d tombstones in the session's collection", r, n)
		}
	}
}

// TestSupersededSessionSurvivesCompaction pins ErrSessionClosed's
// promise: a session superseded by a newer Start keeps resolving its
// frozen view. Start hands it a copy of the collection, so nothing its
// successor folds — arrivals, an extension of a description both hold,
// a departure — shows in its reads, even before the successor's first
// read makes a pass. The successor's reads then compact the pipeline's
// collection and resolve; the superseded session's Snapshot still does
// not change, and its Resume drains to what it drains to when its
// successor did nothing.
func TestSupersededSessionSurvivesCompaction(t *testing.T) {
	all := streamDescriptions(hardSessionWorld(t, 681, 120))
	half := len(all) / 2
	run := func(more bool) (*minoaner.Result, *minoaner.Snapshot) {
		t.Helper()
		p := minoaner.New(minoaner.Defaults())
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
		frozen := snapshot(t, a)
		b, err := p.Start()
		if err != nil {
			t.Fatal(err)
		}
		if more {
			ext := minoaner.Description{KB: all[0].KB, URI: all[0].URI,
				Attrs: []minoaner.Attribute{{Predicate: "note", Value: "late merge"}}}
			if err := b.Ingest(append([]minoaner.Description{ext}, all[half:]...)); err != nil {
				t.Fatal(err)
			}
			if err := b.Evict([]minoaner.Ref{{KB: all[1].KB, URI: all[1].URI}}); err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, "before the successor's first read", frozen, snapshot(t, a), all)
			evictEach(t, b, all[2:half/4], map[string]bool{})
			if _, err := b.Resume(0); err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, "after the successor's compactions", frozen, snapshot(t, a), all)
		}
		res, err := a.Resume(0)
		if err != nil {
			t.Fatal(err)
		}
		return res, snapshot(t, a)
	}
	got, gotSn := run(true)
	want, wantSn := run(false)
	sameResult(t, "superseded Resume", want, got)
	sameSnapshot(t, "superseded Snapshot", wantSn, gotSn, all)
}

// sameSnapshot checks two snapshots serve the same result and the same
// Cluster and Refs lookups for every description of all.
func sameSnapshot(t *testing.T, label string, want, got *minoaner.Snapshot, all []minoaner.Description) {
	t.Helper()
	sameResult(t, label, want.Result(), got.Result())
	for _, d := range all {
		wc, wok := want.Cluster(d.KB, d.URI)
		gc, gok := got.Cluster(d.KB, d.URI)
		if wok != gok || fmt.Sprint(wc) != fmt.Sprint(gc) {
			t.Fatalf("%s: Cluster(%s, %s) = %v, %v; want %v, %v", label, d.KB, d.URI, gc, gok, wc, wok)
		}
		if wr, gr := want.Refs(d.URI), got.Refs(d.URI); fmt.Sprint(wr) != fmt.Sprint(gr) {
			t.Fatalf("%s: Refs(%s) = %v, want %v", label, d.URI, gr, wr)
		}
	}
}
