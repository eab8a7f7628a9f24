package rdf

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://ex.org/a"), "<http://ex.org/a>"},
		{NewBlank("b0"), "_:b0"},
		{NewLiteral("hello"), `"hello"`},
		{NewLangLiteral("bonjour", "fr"), `"bonjour"@fr`},
		{NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"), `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewTypedLiteral("plain", XSDString), `"plain"`},
		{NewLiteral("a\"b\\c\nd"), `"a\"b\\c\nd"`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%v) = %s, want %s", c.term, got, c.want)
		}
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Blank.String() != "Blank" || Literal.String() != "Literal" {
		t.Errorf("kind names wrong: %s %s %s", IRI, Blank, Literal)
	}
	if got := TermKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %s", got)
	}
}

func TestTermPredicates(t *testing.T) {
	iri := NewIRI("http://ex.org/x")
	bl := NewBlank("n1")
	lit := NewLiteral("v")
	if !iri.IsIRI() || !iri.IsResource() || iri.IsBlank() || iri.IsLiteral() {
		t.Error("IRI predicate flags wrong")
	}
	if !bl.IsBlank() || !bl.IsResource() || bl.IsIRI() || bl.IsLiteral() {
		t.Error("blank predicate flags wrong")
	}
	if !lit.IsLiteral() || lit.IsResource() || lit.IsIRI() || lit.IsBlank() {
		t.Error("literal predicate flags wrong")
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct {
		iri, want string
	}{
		{"http://ex.org/resource/Paris", "Paris"},
		{"http://ex.org/onto#City", "City"},
		{"http://ex.org/resource/Paris/", "Paris"},
		{"urn:uuid:1234", "urn:uuid:1234"},
		{"plain", "plain"},
	}
	for _, c := range cases {
		if got := NewIRI(c.iri).LocalName(); got != c.want {
			t.Errorf("LocalName(%s) = %s, want %s", c.iri, got, c.want)
		}
	}
	if got := NewLiteral("x y").LocalName(); got != "x y" {
		t.Errorf("LocalName(literal) = %q", got)
	}
}

func TestTripleValidate(t *testing.T) {
	good := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("v"))
	if err := good.Validate(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	badSubj := NewTriple(NewLiteral("v"), NewIRI("http://p"), NewLiteral("v"))
	if err := badSubj.Validate(); err == nil {
		t.Error("literal subject accepted")
	}
	badPred := NewTriple(NewIRI("http://a"), NewBlank("b"), NewLiteral("v"))
	if err := badPred.Validate(); err == nil {
		t.Error("blank predicate accepted")
	}
}

func TestDecodeBasic(t *testing.T) {
	doc := `
# a comment
<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
<http://ex.org/a> <http://ex.org/name> "Alice" .
_:n1 <http://ex.org/knows> _:n2 .
<http://ex.org/a> <http://ex.org/bio> "line1\nline2"@en .
<http://ex.org/a> <http://ex.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 5 {
		t.Fatalf("got %d triples, want 5", len(ts))
	}
	if ts[0].Object != NewIRI("http://ex.org/b") {
		t.Errorf("triple 0 object = %v", ts[0].Object)
	}
	if ts[1].Object != NewLiteral("Alice") {
		t.Errorf("triple 1 object = %v", ts[1].Object)
	}
	if !ts[2].Subject.IsBlank() || ts[2].Subject.Value != "n1" {
		t.Errorf("triple 2 subject = %v", ts[2].Subject)
	}
	if ts[3].Object.Lang != "en" || ts[3].Object.Value != "line1\nline2" {
		t.Errorf("triple 3 object = %#v", ts[3].Object)
	}
	if ts[4].Object.Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("triple 4 datatype = %q", ts[4].Object.Datatype)
	}
}

func TestDecodeUnicodeEscapes(t *testing.T) {
	doc := `<http://ex.org/a> <http://ex.org/p> "Zürich \U0001F600" .`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if want := "Zürich \U0001F600"; ts[0].Object.Value != want {
		t.Errorf("got %q, want %q", ts[0].Object.Value, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		`<http://a> <http://p> <http://b>`,         // missing dot
		`<http://a> <http://p> .`,                  // missing object
		`"lit" <http://p> <http://b> .`,            // literal subject
		`<http://a> _:b <http://b> .`,              // blank predicate
		`<http://a> <http://p> "unterminated .`,    // unterminated literal
		`<http://a> <http://p> "x"^^bad .`,         // non-IRI datatype
		`<http://a> <http://p> "x"@ .`,             // empty lang
		`<http://a <http://p> <http://b> .`,        // unterminated IRI: swallows rest, missing '.'
		`<http://a> <http://p> <http://b> . extra`, // trailing garbage
		`<http://a> <http://p> "x\qz" .`,           // bad escape
		`<http://a> <http://p> "x\u12" .`,          // truncated unicode escape
		`_: <http://p> <http://b> .`,               // empty blank label
		`? <http://p> <http://b> .`,                // junk subject
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("accepted invalid statement: %s", doc)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("error for %q is not *ParseError: %v", doc, err)
			}
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	doc := "<http://a> <http://p> <http://b> .\n\nbroken line\n"
	_, err := ParseString(doc)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

func TestDecodeNoTrailingNewline(t *testing.T) {
	d := NewDecoder(strings.NewReader(`<http://a> <http://p> "v" .`))
	tr, err := d.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if tr.Object.Value != "v" {
		t.Errorf("object = %v", tr.Object)
	}
	if _, err := d.Decode(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ts := []Triple{
		NewTriple(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), NewIRI("http://ex.org/b")),
		NewTriple(NewBlank("x"), NewIRI("http://ex.org/p"), NewLiteral("tab\there \"quoted\"")),
		NewTriple(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), NewLangLiteral("héllo", "fr-CA")),
		NewTriple(NewIRI("http://ex.org/a"), NewIRI("http://ex.org/p"), NewTypedLiteral("3.14", "http://www.w3.org/2001/XMLSchema#decimal")),
	}
	doc, err := WriteString(ts)
	if err != nil {
		t.Fatalf("WriteString: %v", err)
	}
	back, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString(round-trip): %v", err)
	}
	if len(back) != len(ts) {
		t.Fatalf("round trip length %d != %d", len(back), len(ts))
	}
	for i := range ts {
		if back[i] != ts[i] {
			t.Errorf("triple %d: got %v want %v", i, back[i], ts[i])
		}
	}
}

func TestEncoderRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	enc := NewEncoder(&sb)
	bad := NewTriple(NewLiteral("v"), NewIRI("http://p"), NewLiteral("v"))
	if err := enc.Encode(bad); err == nil {
		t.Fatal("encoder accepted invalid triple")
	}
	// Error is sticky.
	good := NewTriple(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("v"))
	if err := enc.Encode(good); err == nil {
		t.Error("sticky error not reported")
	}
}

// Property: any literal string round-trips through encode/parse unchanged.
func TestLiteralRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		// N-Triples statements are line-oriented; the escaper must make any
		// string safe, including embedded newlines and quotes.
		tr := NewTriple(NewIRI("http://ex.org/s"), NewIRI("http://ex.org/p"), NewLiteral(s))
		doc, err := WriteString([]Triple{tr})
		if err != nil {
			return false
		}
		back, err := ParseString(doc)
		if err != nil || len(back) != 1 {
			return false
		}
		return back[0].Object.Value == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: term String() is injective over distinct kinds for same value.
func TestTermStringDistinguishesKinds(t *testing.T) {
	f := func(v string) bool {
		if strings.ContainsAny(v, "<>\"\\\n\r\t ") || v == "" {
			return true // skip values illegal in IRIs; covered elsewhere
		}
		i, b, l := NewIRI(v).String(), NewBlank(v).String(), NewLiteral(v).String()
		return i != b && b != l && i != l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadDecode(t *testing.T) {
	doc := `
<http://a/s> <http://a/p> "v" <http://graphs.example/dbp> .
<http://a/s2> <http://a/p> <http://a/o> .
_:b <http://a/p> "w"@en _:g .
`
	qs, err := ParseQuadsString(doc)
	if err != nil {
		t.Fatalf("ParseQuadsString: %v", err)
	}
	if len(qs) != 3 {
		t.Fatalf("got %d quads", len(qs))
	}
	if qs[0].Graph != NewIRI("http://graphs.example/dbp") {
		t.Errorf("graph=%v", qs[0].Graph)
	}
	if qs[1].Graph != (Term{}) {
		t.Errorf("default graph not zero: %v", qs[1].Graph)
	}
	if !qs[2].Graph.IsBlank() {
		t.Errorf("blank graph label: %v", qs[2].Graph)
	}
	// String round-trips.
	back, err := ParseQuadsString(qs[0].String() + "\n" + qs[1].String())
	if err != nil || len(back) != 2 || back[0] != qs[0] || back[1] != qs[1] {
		t.Errorf("round trip failed: %v %v", back, err)
	}
}

func TestQuadDecodeErrors(t *testing.T) {
	bad := []string{
		`<http://a/s> <http://a/p> "v" "litgraph" .`, // literal graph label
		`<http://a/s> <http://a/p> "v" <http://g> extra .`,
		`<http://a/s> <http://a/p> .`,
	}
	for _, doc := range bad {
		if _, err := ParseQuadsString(doc); err == nil {
			t.Errorf("accepted invalid quads: %s", doc)
		}
	}
	// Every valid N-Triples doc is valid N-Quads.
	qs, err := ParseQuadsString(`<http://a> <http://p> <http://b> .`)
	if err != nil || len(qs) != 1 {
		t.Errorf("N-Triples-as-N-Quads failed: %v %v", qs, err)
	}
}
