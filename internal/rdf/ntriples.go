package rdf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error at a specific line of an RDF
// document.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // human-readable description
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s", e.Line, e.Msg)
}

// Decoder reads triples from an N-Triples stream, one statement per
// line. Comment lines (starting with '#') and blank lines are skipped.
// The decoder is lenient, matching the messy reality of published LOD
// dumps: relative IRIs pass, and a language tag or blank node label is
// whatever runs up to the next space or tab ('.' also ends a label).
type Decoder struct{ lineDecoder }

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{newLineDecoder(r)} }

// Decode returns the next triple, or io.EOF when the stream ends.
func (d *Decoder) Decode() (Triple, error) {
	q, err := d.next(false)
	return q.Triple, err
}

// DecodeAll reads the remaining stream and returns all triples.
func (d *Decoder) DecodeAll() ([]Triple, error) { return decodeAll(d.Decode) }

// Quad is a triple with the graph label of its source — the shape of
// Web-crawl corpora such as the Billion Triple Challenge datasets,
// where the fourth term records which dataset published the statement.
type Quad struct {
	Triple
	// Graph is the graph label IRI, or the zero Term for statements in
	// the default graph.
	Graph Term
}

// String renders the quad in N-Quads syntax.
func (q Quad) String() string {
	if q.Graph == (Term{}) {
		return q.Triple.String()
	}
	return q.Subject.String() + " " + q.Predicate.String() + " " +
		q.Object.String() + " " + q.Graph.String() + " ."
}

// QuadDecoder reads N-Quads: N-Triples statements with an optional
// graph term before the final '.'. Lines without a graph term parse as
// default-graph statements, so any N-Triples document is also a valid
// N-Quads document.
type QuadDecoder struct{ lineDecoder }

// NewQuadDecoder returns a QuadDecoder reading from r.
func NewQuadDecoder(r io.Reader) *QuadDecoder { return &QuadDecoder{newLineDecoder(r)} }

// Decode returns the next quad, or io.EOF at end of stream.
func (d *QuadDecoder) Decode() (Quad, error) { return d.next(true) }

// DecodeAll reads the remaining stream.
func (d *QuadDecoder) DecodeAll() ([]Quad, error) { return decodeAll(d.Decode) }

func decodeAll[T any](decode func() (T, error)) ([]T, error) {
	var out []T
	for {
		v, err := decode()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}

// lineDecoder is the statement loop under Decoder and QuadDecoder.
type lineDecoder struct {
	r    *bufio.Reader
	line int
}

func newLineDecoder(r io.Reader) lineDecoder {
	return lineDecoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// next parses the next statement; graph admits an N-Quads graph term.
func (d *lineDecoder) next(graph bool) (Quad, error) {
	for {
		d.line++
		raw, err := d.r.ReadString('\n')
		if err != nil && err != io.EOF {
			return Quad{}, fmt.Errorf("rdf: read: %w", err)
		}
		if line := strings.TrimSpace(raw); line != "" && line[0] != '#' {
			q, perr := statement(line, graph)
			if perr != nil {
				return Quad{}, &ParseError{Line: d.line, Msg: perr.Error()}
			}
			return q, nil
		}
		if err == io.EOF {
			return Quad{}, io.EOF
		}
	}
}

// statement parses one statement (without its newline).
func statement(line string, graph bool) (Quad, error) {
	// N-Triples documents are UTF-8 by definition; raw invalid bytes
	// would silently turn into U+FFFD on re-serialization, breaking
	// the parse → serialize round trip.
	if !utf8.ValidString(line) {
		return Quad{}, errors.New("invalid UTF-8 in statement")
	}
	c := &cursor{s: line}
	var q Quad
	var err error
	if q.Subject, err = term(c); err != nil {
		return Quad{}, fmt.Errorf("subject: %w", err)
	}
	if !q.Subject.IsResource() {
		return Quad{}, errors.New("subject must be IRI or blank node")
	}
	skipWS(c)
	if q.Predicate, err = term(c); err != nil {
		return Quad{}, fmt.Errorf("predicate: %w", err)
	}
	if !q.Predicate.IsIRI() {
		return Quad{}, errors.New("predicate must be IRI")
	}
	skipWS(c)
	if q.Object, err = term(c); err != nil {
		return Quad{}, fmt.Errorf("object: %w", err)
	}
	skipWS(c)
	if graph && !c.done() && !c.at('.') {
		if q.Graph, err = term(c); err != nil {
			return Quad{}, fmt.Errorf("graph label: %w", err)
		}
		if !q.Graph.IsResource() {
			return Quad{}, errors.New("graph label must be IRI or blank node")
		}
		skipWS(c)
	}
	if !c.at('.') {
		return Quad{}, fmt.Errorf("expected terminating '.', got %q", c.s[c.i:])
	}
	c.i++
	skipWS(c)
	if !c.done() {
		return Quad{}, fmt.Errorf("trailing content after '.': %q", c.s[c.i:])
	}
	return q, nil
}

// term reads one N-Triples term.
func term(c *cursor) (Term, error) {
	if c.done() {
		return Term{}, errors.New("unexpected end of statement")
	}
	switch c.s[c.i] {
	case '<':
		v, err := c.iri()
		return NewIRI(v), err
	case '_':
		if !strings.HasPrefix(c.s[c.i:], "_:") {
			return Term{}, errors.New("blank node must start with _:")
		}
		c.i += 2
		label := c.span(func(b byte) bool { return !isWS(b) && b != '.' })
		if label == "" {
			return Term{}, errors.New("empty blank node label")
		}
		return NewBlank(label), nil
	case '"':
		c.i++
		lex, err := c.text(`"`)
		if err != nil {
			return Term{}, err
		}
		if c.done() {
			return Term{}, errors.New("unterminated literal")
		}
		c.i++
		switch {
		case c.at('@'):
			lang, err := c.langTag(func(b byte) bool { return !isWS(b) })
			return NewLangLiteral(lex, lang), err
		case c.at('^'):
			dt, ok, err := c.datatype()
			if err == nil && !ok {
				err = errors.New("datatype must be an IRI")
			}
			return NewTypedLiteral(lex, dt), err
		}
		return NewLiteral(lex), nil
	}
	return Term{}, fmt.Errorf("unexpected character %q", c.s[c.i])
}

func skipWS(c *cursor) {
	for c.i < len(c.s) && isWS(c.s[c.i]) {
		c.i++
	}
}

func isWS(c byte) bool { return c == ' ' || c == '\t' }

// Encoder writes triples in N-Triples syntax, one per line.
type Encoder struct {
	w   *bufio.Writer
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 64<<10)}
}

// Encode writes one triple. The first error encountered is sticky.
func (e *Encoder) Encode(t Triple) error {
	if e.err != nil {
		return e.err
	}
	if err := t.Validate(); err != nil {
		e.err = err
		return err
	}
	if _, err := e.w.WriteString(t.String()); err != nil {
		e.err = fmt.Errorf("rdf: write: %w", err)
		return e.err
	}
	if err := e.w.WriteByte('\n'); err != nil {
		e.err = fmt.Errorf("rdf: write: %w", err)
	}
	return e.err
}

// Flush writes any buffered output to the underlying writer.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	if err := e.w.Flush(); err != nil {
		e.err = fmt.Errorf("rdf: flush: %w", err)
	}
	return e.err
}

// ParseString parses a complete N-Triples document held in a string.
func ParseString(doc string) ([]Triple, error) {
	return NewDecoder(strings.NewReader(doc)).DecodeAll()
}

// ParseQuadsString parses a complete N-Quads document from a string.
func ParseQuadsString(doc string) ([]Quad, error) {
	return NewQuadDecoder(strings.NewReader(doc)).DecodeAll()
}

// WriteString serializes triples to an N-Triples document string.
func WriteString(ts []Triple) (string, error) {
	var sb strings.Builder
	enc := NewEncoder(&sb)
	for _, t := range ts {
		if err := enc.Encode(t); err != nil {
			return "", err
		}
	}
	if err := enc.Flush(); err != nil {
		return "", err
	}
	return sb.String(), nil
}
