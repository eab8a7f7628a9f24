package rdf

import (
	"strings"
	"testing"
)

// FuzzNTriplesRoundTrip feeds arbitrary documents to the N-Triples
// decoder and checks that (a) it never panics, and (b) whatever it
// accepts survives a serialize→reparse round trip unchanged — the
// property loaders and the owl:sameAs ground-truth path rely on.
func FuzzNTriplesRoundTrip(f *testing.F) {
	seeds := []string{
		"",
		"<http://a> <http://p> <http://b> .",
		"<http://a> <http://p> \"lit\" .",
		"<http://a> <http://p> \"l\"@en .",
		"<http://a> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#int> .",
		"_:b0 <http://p> _:b1 .",
		"# comment\n\n<http://a> <http://p> \"x\\n\\\"y\\\"\" .",
		"<http://a> <http://p> \"\\u00e9\\U0001F600\" .",
		"<http://ex/é> <http://p> \"café 東京\" .",
		"<http://a> <http://p> \"unterminated",
		"malformed line without terms .",
		"<http://a> <http://p> <http://b> . trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		triples, err := ParseString(doc)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		out, err := WriteString(triples)
		if err != nil {
			t.Fatalf("accepted triples failed to serialize: %v", err)
		}
		again, err := ParseString(out)
		if err != nil {
			t.Fatalf("serialized form rejected: %v\ndoc: %q\nout: %q", err, doc, out)
		}
		if len(again) != len(triples) {
			t.Fatalf("round trip changed triple count: %d -> %d\ndoc: %q\nout: %q",
				len(triples), len(again), doc, out)
		}
		for i := range triples {
			if !triples[i].Subject.Equal(again[i].Subject) ||
				!triples[i].Predicate.Equal(again[i].Predicate) ||
				!triples[i].Object.Equal(again[i].Object) {
				t.Fatalf("triple %d changed by round trip:\n  before %v\n  after  %v",
					i, triples[i], again[i])
			}
		}
	})
}

// FuzzQuadAndTurtleDecoders drives the N-Quads, N-Triples and Turtle
// decoders with the same arbitrary input: they must never panic, the
// quad decoder's triples must round-trip through the N-Triples writer
// like plain triples do, and a document that both the N-Triples and the
// Turtle decoder accept must decode to the same triples under both.
func FuzzQuadAndTurtleDecoders(f *testing.F) {
	seeds := []string{
		"",
		"<http://a> <http://p> <http://b> <http://g> .",
		"<http://a> <http://p> \"x\" .",
		"@prefix ex: <http://ex/> .\nex:a ex:p ex:b .",
		"@base <http://base/> .\n<a> <p> \"v\" ; <q> \"w\" .",
		"ex:a ex:p [ ex:q \"nested\" ] .",
		"<http://a> <http://p> ( \"lists\" \"too\" ) .",
		"<http://a> <http://p> \"a\\u0000b\" .",
		"<http://a> <http://p> \"a\\u0001b\" .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		quads, qerr := NewQuadDecoder(strings.NewReader(doc)).DecodeAll()
		if qerr == nil {
			ts := make([]Triple, len(quads))
			for i, q := range quads {
				ts[i] = q.Triple
			}
			if _, err := WriteString(ts); err != nil {
				t.Fatalf("accepted quads failed to serialize: %v", err)
			}
		}
		fromTTL, terr := NewTurtleDecoder(strings.NewReader(doc)).DecodeAll()
		fromNT, nerr := NewDecoder(strings.NewReader(doc)).DecodeAll()
		if terr != nil || nerr != nil {
			return
		}
		if len(fromNT) != len(fromTTL) {
			t.Fatalf("N-Triples decoded %d triples, Turtle %d\ndoc: %q", len(fromNT), len(fromTTL), doc)
		}
		for i := range fromNT {
			if fromNT[i] != fromTTL[i] {
				t.Fatalf("triple %d: N-Triples %v, Turtle %v\ndoc: %q", i, fromNT[i], fromTTL[i], doc)
			}
		}
	})
}
