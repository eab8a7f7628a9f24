package rdf

import (
	"errors"
	"strings"
	"testing"
)

func parseTTL(t *testing.T, doc string) []Triple {
	t.Helper()
	ts, err := ParseTurtleString(doc)
	if err != nil {
		t.Fatalf("ParseTurtleString: %v", err)
	}
	return ts
}

func TestTurtleBasic(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:Paris a ex:City ;
    rdfs:label "Paris"@fr , "Paris"@en ;
    ex:population 2161000 ;
    ex:country ex:France .
`)
	if len(ts) != 5 {
		t.Fatalf("got %d triples, want 5:\n%v", len(ts), ts)
	}
	if ts[0].Predicate.Value != RDFType || ts[0].Object != NewIRI("http://ex.org/City") {
		t.Errorf("'a' not expanded: %v", ts[0])
	}
	if ts[1].Object != NewLangLiteral("Paris", "fr") || ts[2].Object != NewLangLiteral("Paris", "en") {
		t.Errorf("object list wrong: %v %v", ts[1].Object, ts[2].Object)
	}
	if ts[3].Object.Datatype != "http://www.w3.org/2001/XMLSchema#integer" || ts[3].Object.Value != "2161000" {
		t.Errorf("numeric shorthand: %#v", ts[3].Object)
	}
	if ts[4].Object != NewIRI("http://ex.org/France") {
		t.Errorf("resource object: %v", ts[4].Object)
	}
	for _, tr := range ts {
		if tr.Subject != NewIRI("http://ex.org/Paris") {
			t.Errorf("subject drifted: %v", tr.Subject)
		}
	}
}

func TestTurtleSparqlDirectives(t *testing.T) {
	ts := parseTTL(t, `
PREFIX ex: <http://ex.org/>
BASE <http://base.org/>
ex:a ex:p <rel> .
`)
	if len(ts) != 1 {
		t.Fatalf("triples=%v", ts)
	}
	if ts[0].Object != NewIRI("http://base.org/rel") {
		t.Errorf("base resolution: %v", ts[0].Object)
	}
}

// TestTurtleBaseResolution resolves relative IRIs against @base by RFC
// 3986 §5.2, through the decoder: a reference replaces the base's last
// segment, dot segments climb, an absolute path keeps only the
// authority, and a prefix declared relative resolves once, at its
// declaration.
func TestTurtleBaseResolution(t *testing.T) {
	for _, row := range []struct {
		base, directive, object, want string
	}{
		{base: "http://ex.org/dir/file", object: "<x>", want: "http://ex.org/dir/x"},
		{base: "http://ex.org/dir/", object: "<../y>", want: "http://ex.org/y"},
		{base: "http://ex.org/dir/", object: "</abs>", want: "http://ex.org/abs"},
		{base: "http://ex.org/dir/", directive: "@prefix e: <sub/> .", object: "e:x", want: "http://ex.org/dir/sub/x"},
		{base: "http://ex.org/dir/", object: "<#frag>", want: "http://ex.org/dir/#frag"},
		{base: "http://ex.org/dir/", object: "<café/ü>", want: "http://ex.org/dir/café/ü"},
		{base: "http://ex.org/dir/", object: "<urn:isbn:1>", want: "urn:isbn:1"},
	} {
		doc := "@base <" + row.base + "> .\n" + row.directive + "\n<http://s> <http://p> " + row.object + " .\n"
		ts := parseTTL(t, doc)
		if len(ts) != 1 || ts[0].Object != NewIRI(row.want) {
			t.Errorf("base <%s>, object %s: got %v, want <%s>", row.base, row.object, ts, row.want)
		}
	}
}

// TestResolveIRIRFC3986 checks resolveIRI against the reference
// resolution examples of RFC 3986 §5.4, normal and abnormal, with the
// one deliberate exception: a reference with a scheme is kept as
// written ("g:h" and "http:g" both pass through).
func TestResolveIRIRFC3986(t *testing.T) {
	const base = "http://a/b/c/d;p?q"
	for ref, want := range map[string]string{
		"g:h": "g:h", "g": "http://a/b/c/g", "./g": "http://a/b/c/g", "g/": "http://a/b/c/g/",
		"/g": "http://a/g", "//g": "http://g", "?y": "http://a/b/c/d;p?y", "g?y": "http://a/b/c/g?y",
		"#s": "http://a/b/c/d;p?q#s", "g#s": "http://a/b/c/g#s", "g?y#s": "http://a/b/c/g?y#s",
		";x": "http://a/b/c/;x", "g;x": "http://a/b/c/g;x", "g;x?y#s": "http://a/b/c/g;x?y#s",
		"": "http://a/b/c/d;p?q", ".": "http://a/b/c/", "./": "http://a/b/c/", "..": "http://a/b/",
		"../": "http://a/b/", "../g": "http://a/b/g", "../..": "http://a/", "../../": "http://a/",
		"../../g": "http://a/g",
		// §5.4.2, abnormal examples.
		"../../../g": "http://a/g", "../../../../g": "http://a/g", "/./g": "http://a/g",
		"/../g": "http://a/g", "g.": "http://a/b/c/g.", ".g": "http://a/b/c/.g", "g..": "http://a/b/c/g..",
		"..g": "http://a/b/c/..g", "./../g": "http://a/b/g", "./g/.": "http://a/b/c/g/",
		"g/./h": "http://a/b/c/g/h", "g/../h": "http://a/b/c/h", "g;x=1/./y": "http://a/b/c/g;x=1/y",
		"g;x=1/../y": "http://a/b/c/y", "g?y/./x": "http://a/b/c/g?y/./x", "g?y/../x": "http://a/b/c/g?y/../x",
		"g#s/./x": "http://a/b/c/g#s/./x", "g#s/../x": "http://a/b/c/g#s/../x", "http:g": "http:g",
	} {
		if got := resolveIRI(base, ref); got != want {
			t.Errorf("resolve %q against %q = %q, want %q", ref, base, got, want)
		}
	}
	// A base with an authority and an empty path merges under "/", and
	// a relative base (a document with no outer base) resolves by the
	// same rules, so a merged path can begin with a dot segment.
	for _, row := range [][3]string{
		{"http://a", "g", "http://a/g"},
		{"x", "../y", "y"},
		{"p/q", "./r", "p/r"},
	} {
		if got := resolveIRI(row[0], row[1]); got != row[2] {
			t.Errorf("resolve %q against %q = %q, want %q", row[1], row[0], got, row[2])
		}
	}
}

func TestTurtleLiterals(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:p "plain" .
ex:a ex:p 'single' .
ex:a ex:p """long
"quoted" text""" .
ex:a ex:p "typed"^^xsd:token .
ex:a ex:p "iri-typed"^^<http://ex.org/dt> .
ex:a ex:p 3.14 .
ex:a ex:p true .
ex:a ex:p "esc\t\"x\"" .
ex:a ex:p "a\u0000b" .
ex:a ex:p "a\u0001b" .
ex:a ex:p 7.
`)
	if len(ts) != 11 {
		t.Fatalf("got %d triples", len(ts))
	}
	if ts[0].Object != NewLiteral("plain") || ts[1].Object != NewLiteral("single") {
		t.Errorf("short literals: %v %v", ts[0].Object, ts[1].Object)
	}
	if want := "long\n\"quoted\" text"; ts[2].Object.Value != want {
		t.Errorf("long literal = %q, want %q", ts[2].Object.Value, want)
	}
	if ts[3].Object.Datatype != "http://www.w3.org/2001/XMLSchema#token" {
		t.Errorf("pname datatype: %#v", ts[3].Object)
	}
	if ts[4].Object.Datatype != "http://ex.org/dt" {
		t.Errorf("iri datatype: %#v", ts[4].Object)
	}
	if ts[5].Object.Value != "3.14" || ts[5].Object.Datatype != "http://www.w3.org/2001/XMLSchema#decimal" {
		t.Errorf("decimal: %#v", ts[5].Object)
	}
	if ts[6].Object.Value != "true" {
		t.Errorf("boolean: %#v", ts[6].Object)
	}
	if ts[7].Object.Value != "esc\t\"x\"" {
		t.Errorf("escapes: %q", ts[7].Object.Value)
	}
	// U+0000 and U+0001 are plain text, not a language tag or datatype.
	if ts[8].Object != NewLiteral("a\x00b") || ts[9].Object != NewLiteral("a\x01b") {
		t.Errorf("control escapes: %#v %#v", ts[8].Object, ts[9].Object)
	}
	// The '.' right after an integer ends the statement.
	if ts[10].Object != NewTypedLiteral("7", "http://www.w3.org/2001/XMLSchema#integer") {
		t.Errorf("integer before '.': %#v", ts[10].Object)
	}
}

func TestTurtleBlankNodes(t *testing.T) {
	ts := parseTTL(t, `
@prefix ex: <http://ex.org/> .
_:x ex:p ex:a .
ex:a ex:q [ ex:inner "v" ] .
[ ex:standalone "w" ] .
`)
	if len(ts) != 4 {
		t.Fatalf("got %d triples:\n%v", len(ts), ts)
	}
	if !ts[0].Subject.IsBlank() || ts[0].Subject.Value != "x" {
		t.Errorf("labelled blank subject: %v", ts[0].Subject)
	}
	// ex:a ex:q _:anonN plus _:anonN ex:inner "v".
	if !ts[1].Object.IsBlank() {
		t.Errorf("anon object: %v", ts[1].Object)
	}
	inner := ts[2]
	if inner.Subject != ts[1].Object || inner.Object != NewLiteral("v") {
		t.Errorf("nested property list: %v", inner)
	}
	if !ts[3].Subject.IsBlank() || ts[3].Object != NewLiteral("w") {
		t.Errorf("standalone anon subject: %v", ts[3])
	}
}

func TestTurtleComments(t *testing.T) {
	ts := parseTTL(t, `
# leading comment
@prefix ex: <http://ex.org/> . # trailing
ex:a ex:p ex:b . # another
`)
	if len(ts) != 1 {
		t.Fatalf("triples=%v", ts)
	}
}

func TestTurtleErrors(t *testing.T) {
	bad := []string{
		`ex:a ex:p ex:b .`,                          // undefined prefix
		`@prefix ex: <http://x/> . ex:a _:b ex:c .`, // blank predicate
		`@prefix ex: <http://x/> . ex:a ex:p "unterminated .`,
		`@prefix ex: <http://x/> . ex:a ex:p ex:b`,       // missing dot
		`@unknown <http://x/> .`,                         // bad directive
		`@prefix ex <http://x/> .`,                       // prefix without colon
		`@prefix ex: "notaniri" .`,                       // prefix non-IRI
		`@prefix ex: <http://x/> . ex:a ex:p "x"^^ 4 .`,  // bad datatype
		`@prefix ex: <http://x/> . ex:a ex:p "x"@ .`,     // empty lang
		`<http://s> ! <http://p> <http://o> .`,           // lexing error after a subject
		`_:x @foo <p> <o> .`,                             // stray '@' after a subject
		`[ ! <http://p> <http://o> ] .`,                  // lexing error after '['
		`<http://s> <http://p> <http://o> ; ! <p> <o> .`, // lexing error after ';'
	}
	for _, doc := range bad {
		if _, err := ParseTurtleString(doc); err == nil {
			t.Errorf("accepted invalid turtle: %s", doc)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error for %q is not *ParseError: %v", doc, err)
			}
		}
	}
}

func TestTurtleEquivalentToNTriples(t *testing.T) {
	// The same graph in both syntaxes must parse identically (modulo
	// statement order, which both preserve here).
	nt := `<http://ex.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/T> .
<http://ex.org/a> <http://ex.org/name> "Alice" .
<http://ex.org/a> <http://ex.org/knows> <http://ex.org/b> .
`
	ttl := `@prefix ex: <http://ex.org/> .
ex:a a ex:T ; ex:name "Alice" ; ex:knows ex:b .
`
	fromNT, err := ParseString(nt)
	if err != nil {
		t.Fatal(err)
	}
	fromTTL := parseTTL(t, ttl)
	if len(fromNT) != len(fromTTL) {
		t.Fatalf("lengths differ: %d vs %d", len(fromNT), len(fromTTL))
	}
	for i := range fromNT {
		if fromNT[i] != fromTTL[i] {
			t.Errorf("triple %d: NT %v vs TTL %v", i, fromNT[i], fromTTL[i])
		}
	}
}

func TestTurtleLargeRoundTrip(t *testing.T) {
	// Serialize a chunk of N-Triples, re-read as Turtle (N-Triples is a
	// subset of Turtle).
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(`<http://ex.org/s` + string(rune('a'+i%26)) + `> <http://ex.org/p> "v` + strings.Repeat("x", i%7) + `" .` + "\n")
	}
	fromNT, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	fromTTL, err := ParseTurtleString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(fromNT) != len(fromTTL) {
		t.Fatalf("NT-as-Turtle mismatch: %d vs %d", len(fromNT), len(fromTTL))
	}
}

func TestTurtleEmptyAndEOF(t *testing.T) {
	ts := parseTTL(t, "")
	if len(ts) != 0 {
		t.Errorf("empty doc gave %v", ts)
	}
	ts = parseTTL(t, "# only a comment\n")
	if len(ts) != 0 {
		t.Errorf("comment-only doc gave %v", ts)
	}
}
