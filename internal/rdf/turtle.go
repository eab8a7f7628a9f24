package rdf

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// TurtleDecoder reads a practical subset of Turtle (RDF 1.1): @prefix
// and @base directives (and their SPARQL-style PREFIX/BASE forms),
// prefixed names, 'a' for rdf:type, predicate lists (';'), object
// lists (','), blank nodes (labelled and anonymous '[]' property
// lists), and the literal forms of N-Triples plus numeric and boolean
// shorthand. Collections '(...)' are not supported (rare in LOD
// entity dumps).
//
// Published LOD datasets are overwhelmingly Turtle or N-Triples; this
// decoder lets the pipeline ingest both. It reads the whole document
// and runs the term readers it shares with the N-Triples decoder
// (cursor) over it.
type TurtleDecoder struct {
	r        io.Reader
	c        cursor
	prefixes map[string]string
	base     string

	// one token of lookahead
	tok    token
	peeked bool

	// pending triples emitted by blank-node property lists
	pending []Triple
	anonSeq int

	// newlines counted before byte lineAt, so that positioning an error
	// scans only the text since the last one
	lineAt, lines int
}

// token is one lexical unit of Turtle.
type token struct {
	kind ttKind
	// text is the IRI of a tkIRI token and the source text of any
	// other.
	text string
	// lit is the term of a tkLiteral token; dtName, when set, is its
	// prefixed-name datatype, expanded where the literal is used.
	lit    Term
	dtName string
}

func (t token) is(kind ttKind, text string) bool { return t.kind == kind && t.text == text }

type ttKind int

const (
	tkEOF       ttKind = iota
	tkIRI              // <...>
	tkPName            // prefix:local, prefix:, :local, or a blank node _:label
	tkLiteral          // quoted, numeric or boolean literal
	tkPunct            // . ; , [ ] ( )
	tkA                // the keyword 'a'
	tkDirective        // @prefix / @base / PREFIX / BASE
)

// NewTurtleDecoder returns a decoder reading Turtle from r.
func NewTurtleDecoder(r io.Reader) *TurtleDecoder {
	return &TurtleDecoder{
		r: r,
		prefixes: map[string]string{
			"rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		},
	}
}

// errf builds a parse error positioned where the cursor stopped.
func (d *TurtleDecoder) errf(format string, args ...any) error {
	if d.c.i < d.lineAt {
		d.lineAt, d.lines = 0, 0
	}
	d.lines += strings.Count(d.c.s[d.lineAt:d.c.i], "\n")
	d.lineAt = d.c.i
	return &ParseError{Line: 1 + d.lines, Msg: "turtle: " + fmt.Sprintf(format, args...)}
}

// DecodeAll reads the whole document and returns its triples.
func (d *TurtleDecoder) DecodeAll() ([]Triple, error) {
	doc, err := io.ReadAll(d.r)
	if err != nil {
		return nil, fmt.Errorf("rdf: read: %w", err)
	}
	d.c = cursor{s: string(doc)}
	var out []Triple
	for {
		ts, err := d.statement()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ts...)
	}
}

// statement parses the next statement after any directives, returning
// the triples it yields (a statement with predicate/object lists yields
// several). io.EOF signals the end of the document.
func (d *TurtleDecoder) statement() ([]Triple, error) {
	for {
		tok, err := d.peek()
		if err != nil {
			return nil, err
		}
		if tok.kind == tkEOF {
			return nil, io.EOF
		}
		if tok.kind != tkDirective {
			break
		}
		d.next()
		if err := d.directive(tok.text); err != nil {
			return nil, err
		}
	}
	subj, err := d.subject()
	if err != nil {
		return nil, err
	}
	// "[ ... ] ." — a blank-node property list may stand alone as a
	// statement, with no further predicate list.
	tok, err := d.peek()
	if err != nil {
		return nil, err
	}
	if subj.IsBlank() && tok.is(tkPunct, ".") {
		d.next()
		out := d.pending
		d.pending = nil
		return out, nil
	}
	triples, err := d.predicateObjectList(subj)
	if err != nil {
		return nil, err
	}
	if err := d.expectPunct("."); err != nil {
		return nil, err
	}
	triples = append(triples, d.pending...)
	d.pending = nil
	return triples, nil
}

func (d *TurtleDecoder) directive(tok string) error {
	switch strings.ToLower(strings.TrimPrefix(tok, "@")) {
	case "prefix":
		name, err := d.next()
		if err != nil {
			return err
		}
		if name.kind != tkPName || !strings.HasSuffix(name.text, ":") {
			return d.errf("@prefix wants 'name:', got %q", name.text)
		}
		iri, err := d.next()
		if err != nil {
			return err
		}
		if iri.kind != tkIRI {
			return d.errf("@prefix wants an IRI, got %q", iri.text)
		}
		d.prefixes[strings.TrimSuffix(name.text, ":")] = d.resolve(iri.text)
	case "base":
		iri, err := d.next()
		if err != nil {
			return err
		}
		if iri.kind != tkIRI {
			return d.errf("@base wants an IRI, got %q", iri.text)
		}
		d.base = d.resolve(iri.text)
	default:
		return d.errf("unknown directive %q", tok)
	}
	// '@prefix'/'@base' end with '.', SPARQL-style PREFIX/BASE do not.
	if strings.HasPrefix(tok, "@") {
		return d.expectPunct(".")
	}
	return nil
}

// resource turns an IRI or prefixed-name token into its term: an IRI,
// or a blank node for "_:label".
func (d *TurtleDecoder) resource(tok token) (Term, error) {
	if tok.kind == tkIRI {
		return NewIRI(d.resolve(tok.text)), nil
	}
	if strings.HasPrefix(tok.text, "_:") {
		return NewBlank(tok.text[2:]), nil
	}
	iri, err := d.expand(tok.text)
	return NewIRI(iri), err
}

func (d *TurtleDecoder) subject() (Term, error) {
	tok, err := d.next()
	if err != nil {
		return Term{}, err
	}
	switch {
	case tok.kind == tkIRI || tok.kind == tkPName:
		return d.resource(tok)
	case tok.is(tkPunct, "["):
		bn, ts, err := d.blankPropertyList()
		d.pending = append(d.pending, ts...)
		return bn, err
	}
	return Term{}, d.errf("bad subject token %q", tok.text)
}

// blankPropertyList reads "[ p o ; ... ]" after its '[': a fresh blank
// node and the triples of its property list.
func (d *TurtleDecoder) blankPropertyList() (Term, []Triple, error) {
	d.anonSeq++
	bn := NewBlank(fmt.Sprintf("anon%d", d.anonSeq))
	tok, err := d.peek()
	if err != nil {
		return Term{}, nil, err
	}
	if tok.is(tkPunct, "]") {
		d.next()
		return bn, nil, nil
	}
	ts, err := d.predicateObjectList(bn)
	if err != nil {
		return Term{}, nil, err
	}
	if err := d.expectPunct("]"); err != nil {
		return Term{}, nil, err
	}
	return bn, ts, nil
}

func (d *TurtleDecoder) predicateObjectList(subj Term) ([]Triple, error) {
	var out []Triple
	for {
		pred, err := d.predicate()
		if err != nil {
			return nil, err
		}
		for {
			obj, extra, err := d.object()
			if err != nil {
				return nil, err
			}
			out = append(out, Triple{Subject: subj, Predicate: pred, Object: obj})
			out = append(out, extra...)
			tok, err := d.peek()
			if err != nil {
				return nil, err
			}
			if !tok.is(tkPunct, ",") {
				break
			}
			d.next()
		}
		tok, err := d.peek()
		if err != nil {
			return nil, err
		}
		if !tok.is(tkPunct, ";") {
			return out, nil
		}
		d.next()
		// A trailing ';' before '.' or ']' is legal Turtle.
		if tok, err = d.peek(); err != nil {
			return nil, err
		}
		if tok.is(tkPunct, ".") || tok.is(tkPunct, "]") {
			return out, nil
		}
	}
}

func (d *TurtleDecoder) predicate() (Term, error) {
	tok, err := d.next()
	if err != nil {
		return Term{}, err
	}
	switch {
	case tok.kind == tkA:
		return NewIRI(RDFType), nil
	case tok.kind == tkPName && strings.HasPrefix(tok.text, "_:"):
		return Term{}, d.errf("blank node cannot be a predicate")
	case tok.kind == tkIRI || tok.kind == tkPName:
		return d.resource(tok)
	}
	return Term{}, d.errf("bad predicate token %q", tok.text)
}

// object returns the object term plus any triples produced by a nested
// anonymous blank node.
func (d *TurtleDecoder) object() (Term, []Triple, error) {
	tok, err := d.next()
	if err != nil {
		return Term{}, nil, err
	}
	switch {
	case tok.kind == tkIRI || tok.kind == tkPName:
		t, err := d.resource(tok)
		return t, nil, err
	case tok.kind == tkLiteral && tok.dtName != "":
		dt, err := d.expand(tok.dtName)
		return NewTypedLiteral(tok.lit.Value, dt), nil, err
	case tok.kind == tkLiteral:
		return tok.lit, nil, nil
	case tok.is(tkPunct, "["):
		return d.blankPropertyList()
	}
	return Term{}, nil, d.errf("bad object token %q", tok.text)
}

func (d *TurtleDecoder) expand(pname string) (string, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return "", d.errf("prefixed name %q lacks ':'", pname)
	}
	ns, ok := d.prefixes[pname[:i]]
	if !ok {
		return "", d.errf("undefined prefix %q", pname[:i])
	}
	return ns + pname[i+1:], nil
}

// resolve applies @base to a relative IRI reference (RFC 3986 §5.2).
// Without a base, and for an IRI with a scheme, it returns iri as
// written.
func (d *TurtleDecoder) resolve(iri string) string {
	if d.base == "" {
		return iri
	}
	return resolveIRI(d.base, iri)
}

// iriParts is an IRI reference split into the five components of RFC
// 3986 Appendix B. The has flags tell an absent component from an
// empty one ("http://a/b?" has an empty query, "http://a/b" none).
type iriParts struct {
	scheme, authority, path, query, fragment       string
	hasScheme, hasAuthority, hasQuery, hasFragment bool
}

// splitIRI splits ref as Appendix B's regular expression does:
// ^(([^:/?#]+):)?(//([^/?#]*))?([^?#]*)(\?([^#]*))?(#(.*))?
func splitIRI(ref string) iriParts {
	var p iriParts
	if i := strings.IndexAny(ref, ":/?#"); i > 0 && ref[i] == ':' {
		p.scheme, p.hasScheme, ref = ref[:i], true, ref[i+1:]
	}
	if i := strings.IndexByte(ref, '#'); i >= 0 {
		p.fragment, p.hasFragment, ref = ref[i+1:], true, ref[:i]
	}
	if i := strings.IndexByte(ref, '?'); i >= 0 {
		p.query, p.hasQuery, ref = ref[i+1:], true, ref[:i]
	}
	if rest, ok := strings.CutPrefix(ref, "//"); ok {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			i = len(rest)
		}
		p.authority, p.hasAuthority, ref = rest[:i], true, rest[i:]
	}
	p.path = ref
	return p
}

// resolveIRI resolves the reference ref against base by RFC 3986
// §5.2.2, merging paths by §5.2.3 and removing dot segments by §5.2.4.
// It works on the strings as written and escapes nothing, so an IRI's
// non-ASCII characters survive. A reference with a scheme is returned
// unchanged, dot segments included, so an absolute IRI reads the same
// with or without @base.
func resolveIRI(base, ref string) string {
	r := splitIRI(ref)
	if r.hasScheme {
		return ref
	}
	b := splitIRI(base)
	t := iriParts{scheme: b.scheme, hasScheme: b.hasScheme, fragment: r.fragment, hasFragment: r.hasFragment}
	switch {
	case r.hasAuthority:
		t.authority, t.hasAuthority = r.authority, true
		t.path = removeDotSegments(r.path)
		t.query, t.hasQuery = r.query, r.hasQuery
	case r.path == "":
		t.authority, t.hasAuthority = b.authority, b.hasAuthority
		t.path = b.path
		t.query, t.hasQuery = b.query, b.hasQuery
		if r.hasQuery {
			t.query, t.hasQuery = r.query, true
		}
	default:
		t.authority, t.hasAuthority = b.authority, b.hasAuthority
		switch {
		case strings.HasPrefix(r.path, "/"):
			t.path = removeDotSegments(r.path)
		case b.hasAuthority && b.path == "":
			t.path = removeDotSegments("/" + r.path)
		default:
			t.path = removeDotSegments(b.path[:strings.LastIndexByte(b.path, '/')+1] + r.path)
		}
		t.query, t.hasQuery = r.query, r.hasQuery
	}
	var sb strings.Builder
	if t.hasScheme {
		sb.WriteString(t.scheme + ":")
	}
	if t.hasAuthority {
		sb.WriteString("//" + t.authority)
	}
	sb.WriteString(t.path)
	if t.hasQuery {
		sb.WriteString("?" + t.query)
	}
	if t.hasFragment {
		sb.WriteString("#" + t.fragment)
	}
	return sb.String()
}

// removeDotSegments is RFC 3986 §5.2.4: it interprets the "." and ".."
// segments of a path, moving segments from the input to the output.
func removeDotSegments(in string) string {
	var out []string // output segments, each with its leading "/" if any
	for in != "" {
		switch {
		case strings.HasPrefix(in, "../"):
			in = in[3:]
		case strings.HasPrefix(in, "./"):
			in = in[2:]
		case strings.HasPrefix(in, "/./"):
			in = in[2:]
		case in == "/.":
			in = "/"
		case strings.HasPrefix(in, "/../"):
			in = in[3:]
			out = out[:max(len(out)-1, 0)]
		case in == "/..":
			in = "/"
			out = out[:max(len(out)-1, 0)]
		case in == "." || in == "..":
			in = ""
		default:
			i := strings.IndexByte(in[1:], '/') + 1
			if i == 0 {
				i = len(in)
			}
			out = append(out, in[:i])
			in = in[i:]
		}
	}
	return strings.Join(out, "")
}

func (d *TurtleDecoder) expectPunct(p string) error {
	tok, err := d.next()
	if err != nil {
		return err
	}
	if !tok.is(tkPunct, p) {
		return d.errf("expected %q, got %q", p, tok.text)
	}
	return nil
}

// --- lexer ---------------------------------------------------------

func (d *TurtleDecoder) peek() (token, error) {
	if !d.peeked {
		tok, err := d.lex()
		if err != nil {
			return token{}, err
		}
		d.tok, d.peeked = tok, true
	}
	return d.tok, nil
}

func (d *TurtleDecoder) next() (token, error) {
	tok, err := d.peek()
	d.peeked = false
	return tok, err
}

func (d *TurtleDecoder) lex() (token, error) {
	c := &d.c
	for !c.done() {
		start := c.i
		switch b := c.s[c.i]; {
		case b == '#':
			if nl := strings.IndexByte(c.s[c.i:], '\n'); nl >= 0 {
				c.i += nl + 1
			} else {
				c.i = len(c.s)
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			c.i++
		case b == '<':
			iri, err := c.iri()
			if err != nil {
				return token{}, d.errf("%v", err)
			}
			return token{kind: tkIRI, text: iri}, nil
		case b == '"' || b == '\'':
			tok, err := d.literal(b)
			tok.text = c.s[start:c.i]
			return tok, err
		case strings.IndexByte(".;,[]()", b) >= 0:
			// '.' may start a decimal number (rare); treat as punct —
			// Turtle numbers in LOD start with a digit or sign.
			c.i++
			return token{kind: tkPunct, text: c.s[start:c.i]}, nil
		case b == '@':
			c.i++
			if word := c.span(isWordByte); word == "prefix" || word == "base" {
				return token{kind: tkDirective, text: c.s[start:c.i]}, nil
			}
			return token{}, d.errf("unexpected %s", c.s[start:c.i])
		case b == '+' || b == '-' || (b >= '0' && b <= '9'):
			return d.number()
		default:
			return d.name()
		}
	}
	return token{kind: tkEOF}, nil
}

// literal reads a quoted literal — short or long, with either quote
// character — and its optional @lang or ^^datatype.
func (d *TurtleDecoder) literal(q byte) (token, error) {
	c := &d.c
	stop := "\"\n\r"
	if q == '\'' {
		stop = "'\n\r"
	}
	quote := stop[:1]
	c.i++
	var lex string
	switch {
	case strings.HasPrefix(c.s[c.i:], quote+quote):
		c.i += 2
		var err error
		if lex, err = d.longText(quote); err != nil {
			return token{}, err
		}
	case c.at(q):
		c.i++ // empty short literal
	default:
		var err error
		if lex, err = c.text(stop); err != nil {
			return token{}, d.errf("%v", err)
		}
		if c.done() {
			return token{}, d.errf("unterminated literal")
		}
		c.i++
		if c.s[c.i-1] != q {
			return token{}, d.errf("newline in short literal")
		}
	}
	switch {
	case c.at('@'):
		lang, err := c.langTag(func(b byte) bool { return isWordByte(b) || b == '-' })
		if err != nil {
			return token{}, d.errf("%v", err)
		}
		return token{kind: tkLiteral, lit: NewLangLiteral(lex, lang)}, nil
	case c.at('^'):
		dt, ok, err := c.datatype()
		if err != nil {
			return token{}, d.errf("%v", err)
		}
		if ok {
			return token{kind: tkLiteral, lit: NewTypedLiteral(lex, d.resolve(dt))}, nil
		}
		name := c.span(func(b byte) bool { return isWordByte(b) || strings.IndexByte(":._-", b) >= 0 })
		if name == "" {
			return token{}, d.errf("missing datatype")
		}
		return token{kind: tkLiteral, lit: NewLiteral(lex), dtName: name}, nil
	}
	return token{kind: tkLiteral, lit: NewLiteral(lex)}, nil
}

// longText reads the text of a long literal, after its opening three
// quotes, through the closing three.
func (d *TurtleDecoder) longText(quote string) (string, error) {
	c := &d.c
	var sb strings.Builder
	for {
		s, err := c.text(quote)
		if err != nil {
			return "", d.errf("%v", err)
		}
		sb.WriteString(s)
		if c.done() {
			return "", d.errf("unterminated literal")
		}
		if strings.HasPrefix(c.s[c.i:], quote+quote+quote) {
			c.i += 3
			return sb.String(), nil
		}
		sb.WriteString(quote)
		c.i++
	}
}

func (d *TurtleDecoder) number() (token, error) {
	c := &d.c
	start := c.i
	s := c.span(func(b byte) bool {
		return (b >= '0' && b <= '9') || b == '+' || b == '-' || b == '.' || b == 'e' || b == 'E'
	})
	// A trailing '.' is the statement terminator, not part of the number.
	if strings.HasSuffix(s, ".") {
		s = s[:len(s)-1]
		c.i--
	}
	if s == "" || s == "+" || s == "-" {
		return token{}, d.errf("malformed number")
	}
	dt := "http://www.w3.org/2001/XMLSchema#integer"
	if strings.ContainsAny(s, ".eE") {
		dt = "http://www.w3.org/2001/XMLSchema#decimal"
	}
	return token{kind: tkLiteral, text: c.s[start:c.i], lit: NewTypedLiteral(s, dt)}, nil
}

// name reads a bare name: 'a', booleans, SPARQL directives, blank
// nodes (_:x) and prefixed names (p:local, :local, p:).
func (d *TurtleDecoder) name() (token, error) {
	c := &d.c
	s := c.span(isNameByte)
	switch {
	case s == "":
		c.i++
		return token{}, d.errf("unexpected character %q", c.s[c.i-1])
	case s == "a":
		return token{kind: tkA, text: s}, nil
	case s == "true" || s == "false":
		return token{kind: tkLiteral, text: s, lit: NewTypedLiteral(s, "http://www.w3.org/2001/XMLSchema#boolean")}, nil
	case strings.EqualFold(s, "prefix") || strings.EqualFold(s, "base"):
		return token{kind: tkDirective, text: s}, nil
	case strings.Contains(s, ":"):
		return token{kind: tkPName, text: s}, nil
	}
	return token{}, d.errf("unexpected token %q", s)
}

// isWordByte reports the bytes of directive keywords, language tags and
// prefixed datatype names, read one byte as one rune.
func isWordByte(b byte) bool { return unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b)) }

// isNameByte reports bytes legal inside a bare name. '.' is excluded:
// it terminates the statement (dotted local names need IRI syntax).
func isNameByte(b byte) bool {
	return b == ':' || b == '_' || b == '-' ||
		(b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9') ||
		b >= 0x80 // UTF-8 continuation/lead bytes in local names
}

// ParseTurtleString parses a complete Turtle document from a string.
func ParseTurtleString(doc string) ([]Triple, error) {
	return NewTurtleDecoder(strings.NewReader(doc)).DecodeAll()
}
