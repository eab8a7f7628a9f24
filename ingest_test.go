package minoaner_test

import (
	"fmt"
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
)

// matchQuality scores a Result's clusters against the world's ground
// truth, in the world's id space, over cross-KB pairs.
func matchQuality(t *testing.T, w *datagen.World, res *minoaner.Result) eval.MatchQuality {
	t.Helper()
	var pairs []blocking.Pair
	for _, c := range res.Clusters {
		ids := make([]int, 0, len(c))
		for _, r := range c {
			id, ok := w.Collection.IDOf(r.KB, r.URI)
			if !ok {
				t.Fatalf("cluster member %s/%s not in world", r.KB, r.URI)
			}
			ids = append(ids, id)
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if w.Collection.CrossKB(ids[i], ids[j]) {
					pairs = append(pairs, blocking.MakePair(ids[i], ids[j]))
				}
			}
		}
	}
	return eval.EvaluateMatches(w.Collection, w.Truth, pairs)
}

// TestIngestBetweenResumesQuality pins the quality contract of
// interleaved mode on a value-dominated corpus: resolving part of the
// stream early, then ingesting the rest and draining, must reach the
// from-scratch run's quality. (On evidence-starved periphery corpora
// early commitment can trade a little recall for precision — the
// bitwise guarantee is for ingest-then-resolve, tested above.)
func TestIngestBetweenResumesQuality(t *testing.T) {
	w, err := datagen.Generate(datagen.Config{
		Seed: 275, NumEntities: 140,
		KBs: []datagen.KBConfig{
			{Name: "alpha", Coverage: 1, Profile: datagen.Center()},
			{Name: "betaKB", Coverage: 1, Profile: datagen.Center()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := streamDescriptions(w)
	p2 := minoaner.New(minoaner.Defaults())
	if err := p2.Add(all); err != nil {
		t.Fatal(err)
	}
	want, err := p2.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wantQ := matchQuality(t, w, want)
	for _, leg := range []int{30, 120} {
		t.Run(fmt.Sprintf("leg=%d", leg), func(t *testing.T) {
			p := minoaner.New(minoaner.Defaults())
			if err := p.Add(all[:len(all)/2]); err != nil {
				t.Fatal(err)
			}
			s, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resume(leg); err != nil {
				t.Fatal(err)
			}
			if err := s.Ingest(all[len(all)/2:]); err != nil {
				t.Fatal(err)
			}
			got, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			gotQ := matchQuality(t, w, got)
			if gotQ.F1 < wantQ.F1-0.01 || gotQ.Recall < wantQ.Recall-0.01 {
				t.Fatalf("drained session quality %v, from-scratch %v", gotQ, wantQ)
			}
		})
	}
}
