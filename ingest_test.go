package minoaner_test

import (
	"fmt"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/rdf"
)

// streamDescriptions converts a generated world into the ingest-order
// description stream: ids interleaved round-robin across KBs, so every
// batch spans all KBs (the steady-state streaming shape).
func streamDescriptions(w *datagen.World) []minoaner.Description {
	col := w.Collection
	perKB := make([][]int, col.NumKBs())
	for id := 0; id < col.Len(); id++ {
		perKB[col.KBOf(id)] = append(perKB[col.KBOf(id)], id)
	}
	var out []minoaner.Description
	for i := 0; len(out) < col.Len(); i++ {
		for _, ids := range perKB {
			if i < len(ids) {
				d := col.Desc(ids[i])
				out = append(out, minoaner.Description{
					KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
				})
			}
		}
	}
	return out
}

// TestIngestEquivalentToFromScratch is the streaming headline
// guarantee, end to end at the public API: for any split of the corpus
// into K ingest batches, any worker count, and any budget, ingesting
// the batches into a live Session and then resolving produces exactly
// the from-scratch result — the same matches in the same order with
// the same scores and flags, the same statistics, and the same
// clusters.
func TestIngestEquivalentToFromScratch(t *testing.T) {
	w := hardSessionWorld(t, 271, 140)
	all := streamDescriptions(w)
	seedN := len(all) / 4
	for _, k := range []int{1, 2, 5} {
		for _, workers := range []int{1, 4} {
			for _, budget := range []int{7, 0} {
				t.Run(fmt.Sprintf("K=%d/workers=%d/budget=%d", k, workers, budget), func(t *testing.T) {
					cfg := minoaner.EnvDefaults()
					cfg.Workers = workers

					// Incremental: seed, Start, K ingest batches, resolve.
					p := minoaner.New(cfg)
					if err := p.Add(all[:seedN]); err != nil {
						t.Fatal(err)
					}
					s, err := p.Start()
					if err != nil {
						t.Fatal(err)
					}
					rest := all[seedN:]
					for b := 0; b < k; b++ {
						lo, hi := b*len(rest)/k, (b+1)*len(rest)/k
						if err := s.Ingest(rest[lo:hi]); err != nil {
							t.Fatal(err)
						}
					}
					got, err := s.Resume(budget)
					if err != nil {
						t.Fatal(err)
					}

					// From-scratch oracle over the identical corpus.
					p2 := minoaner.New(cfg)
					if err := p2.Add(all); err != nil {
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
					sameResult(t, "ingest-vs-scratch", want, got)
				})
			}
		}
	}
}

// TestIngestKBEquivalent covers the RDF streaming path, including the
// merge case: the second KB's triples arrive in two chunks split
// mid-subject, so some descriptions are extended by the ingest.
func TestIngestKBEquivalent(t *testing.T) {
	w := hardSessionWorld(t, 272, 120)
	alphaDoc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	betaTriples := w.Triples("betaKB")
	cut := len(betaTriples)/2 + 1 // deliberately not on a subject boundary
	firstDoc, err := rdf.WriteString(betaTriples[:cut])
	if err != nil {
		t.Fatal(err)
	}
	secondDoc, err := rdf.WriteString(betaTriples[cut:])
	if err != nil {
		t.Fatal(err)
	}
	betaDoc, err := rdf.WriteString(betaTriples)
	if err != nil {
		t.Fatal(err)
	}

	cfg := minoaner.EnvDefaults()
	cfg.Workers = 4

	p := minoaner.New(cfg)
	if err := p.LoadKB("alpha", strings.NewReader(alphaDoc)); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadKB("betaKB", strings.NewReader(firstDoc)); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestKB("betaKB", strings.NewReader(secondDoc)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}

	p2 := minoaner.New(cfg)
	if err := p2.LoadKB("alpha", strings.NewReader(alphaDoc)); err != nil {
		t.Fatal(err)
	}
	if err := p2.LoadKB("betaKB", strings.NewReader(betaDoc)); err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Start()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s2.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ingest-kb", want, got)
}

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

// TestIngestBetweenResumes exercises the mid-session contract:
// spending budget, then ingesting, then resuming keeps resolution
// monotonic — earlier matches stay resolved at their trace positions
// and executed pairs are never re-spent against the new budget unless
// the ingest re-opened them as rechecks.
func TestIngestBetweenResumes(t *testing.T) {
	w := hardSessionWorld(t, 273, 140)
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
			if err := s.Ingest(all[len(all)/2:]); err != nil {
				t.Fatal(err)
			}
			got, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			// Monotonicity: every pre-ingest match is still in the final
			// result, at the same position.
			if len(got.Matches) < len(mid.Matches) {
				t.Fatalf("matches shrank from %d to %d after ingest", len(mid.Matches), len(got.Matches))
			}
			for i, m := range mid.Matches {
				if got.Matches[i] != m {
					t.Fatalf("match %d changed after ingest: %+v -> %+v", i, m, got.Matches[i])
				}
			}
			if got.Stats.Comparisons <= mid.Stats.Comparisons {
				t.Fatal("ingest added no comparisons")
			}
		})
	}
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
	p2 := minoaner.New(minoaner.EnvDefaults())
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
			p := minoaner.New(minoaner.EnvDefaults())
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

// TestIngestValidation pins the error paths.
func TestIngestValidation(t *testing.T) {
	w := hardSessionWorld(t, 274, 60)
	all := streamDescriptions(w)
	p := minoaner.New(minoaner.EnvDefaults())
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest([]minoaner.Description{{KB: "", URI: "x"}}); err == nil {
		t.Error("empty KB accepted")
	}
	if err := s.IngestKB("", strings.NewReader("")); err == nil {
		t.Error("empty KB name accepted")
	}
	if err := p.Add([]minoaner.Description{{KB: "k", URI: ""}}); err == nil {
		t.Error("empty URI accepted by Add")
	}
	// An empty batch is a no-op, not an error.
	if err := s.Ingest(nil); err != nil {
		t.Errorf("empty ingest: %v", err)
	}
	// Sessions share the pipeline's collection: once a newer session
	// exists, the superseded one must refuse to ingest — before
	// mutating anything — rather than silently desynchronize it. The
	// current session always may, even after earlier Resolve calls.
	s2, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumDescriptions()
	if err := s.Ingest([]minoaner.Description{{KB: "newkb", URI: "http://x/1"}}); err == nil {
		t.Error("ingest on a superseded session accepted")
	}
	if err := s.IngestKB("newkb", strings.NewReader("")); err == nil {
		t.Error("IngestKB on a superseded session accepted")
	}
	if p.NumDescriptions() != before {
		t.Error("refused ingest still mutated the shared collection")
	}
	if err := s2.Ingest([]minoaner.Description{{KB: "newkb", URI: "http://x/1"}}); err != nil {
		t.Errorf("current session refused to ingest: %v", err)
	}
}
