package minoaner_test

import (
	"testing"

	minoaner "repro"
	"repro/internal/rdf"
)

// Result.SameAs and the server's /sameas endpoint share one
// serializer, so this round trip — serialize, re-parse with the strict
// N-Triples parser, re-serialize — vouches for both: every emitted
// line is a valid owl:sameAs triple, and the document is a fixed point
// of the parser.
func TestSameAsRoundTrip(t *testing.T) {
	w := hardSessionWorld(t, 67, 80)
	s := loadSession(t, w, minoaner.Defaults())
	res, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("workload produced no matches; round trip needs some")
	}
	doc := res.SameAs()
	triples, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatalf("SameAs output does not re-parse: %v", err)
	}
	if len(triples) != len(res.Matches) {
		t.Fatalf("%d triples for %d matches", len(triples), len(res.Matches))
	}
	for i, tr := range triples {
		if tr.Predicate.Value != rdf.OWLSameAs {
			t.Fatalf("triple %d predicate %s, want owl:sameAs", i, tr.Predicate.Value)
		}
		if tr.Subject.Value != res.Matches[i].A.URI || tr.Object.Value != res.Matches[i].B.URI {
			t.Fatalf("triple %d is %s ≡ %s, match %d is %s ≡ %s",
				i, tr.Subject.Value, tr.Object.Value, i, res.Matches[i].A.URI, res.Matches[i].B.URI)
		}
	}
	back, err := rdf.WriteString(triples)
	if err != nil {
		t.Fatal(err)
	}
	if back != doc {
		t.Fatal("SameAs document is not a fixed point of parse → write")
	}

	// The session snapshot serves the same bytes.
	if sn := snapshot(t, s); sn.SameAs() != doc {
		t.Fatal("Snapshot.SameAs differs from Result.SameAs")
	}
}
