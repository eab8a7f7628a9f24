package rdf

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// cursor is a read position in RDF source text and the one home of the
// term grammar both decoders share: IRIs, literal text with its escapes,
// language tags and datatypes. The line decoder runs it over one
// N-Triples or N-Quads statement, the Turtle decoder over a whole
// document. A reader leaves the cursor after the last byte it consumed,
// also when it fails, so an error's position is where reading stopped.
type cursor struct {
	s string
	i int
}

func (c *cursor) done() bool { return c.i >= len(c.s) }

// at reports whether the next byte is b.
func (c *cursor) at(b byte) bool { return c.i < len(c.s) && c.s[c.i] == b }

// span consumes the longest run of bytes ok accepts and returns it.
func (c *cursor) span(ok func(byte) bool) string {
	start := c.i
	for c.i < len(c.s) && ok(c.s[c.i]) {
		c.i++
	}
	return c.s[start:c.i]
}

// iri reads an IRI reference from the '<' under the cursor through the
// closing '>', decoding escapes.
func (c *cursor) iri() (string, error) {
	end := strings.IndexByte(c.s[c.i:], '>')
	if end < 0 {
		c.i = len(c.s)
		return "", errors.New("unterminated IRI")
	}
	raw := c.s[c.i+1 : c.i+end]
	c.i += end + 1
	v, err := (&cursor{s: raw}).text("")
	if err != nil {
		return "", fmt.Errorf("IRI: %w", err)
	}
	return v, nil
}

// text reads literal text, decoding backslash escapes, up to the first
// unescaped byte listed in stop (left under the cursor) or the end of
// the input. Text without escapes is returned as a slice of the input.
func (c *cursor) text(stop string) (string, error) {
	var buf []byte
	for {
		rest := c.s[c.i:]
		n := strings.IndexAny(rest, stop)
		if n < 0 {
			n = len(rest)
		}
		k := strings.IndexByte(rest[:n], '\\')
		if k < 0 {
			c.i += n
			if buf == nil {
				return rest[:n], nil
			}
			return string(append(buf, rest[:n]...)), nil
		}
		buf = append(buf, rest[:k]...)
		c.i += k + 1
		r, err := c.decodeEscape()
		if err != nil {
			return "", err
		}
		buf = utf8.AppendRune(buf, r)
	}
}

// decodeEscape consumes the character(s) after a backslash.
func (c *cursor) decodeEscape() (rune, error) {
	if c.done() {
		return 0, errors.New("dangling escape")
	}
	e := c.s[c.i]
	c.i++
	switch e {
	case 't':
		return '\t', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	case '\\':
		return '\\', nil
	case 'u':
		return c.hexEscape(4)
	case 'U':
		return c.hexEscape(8)
	}
	return 0, fmt.Errorf("invalid escape \\%c", e)
}

// hexEscape reads the n hex digits of a \u or \U escape. A code point
// that is no valid rune decodes to U+FFFD.
func (c *cursor) hexEscape(n int) (rune, error) {
	var v rune
	for ; n > 0; n-- {
		if c.done() {
			return 0, errors.New("truncated unicode escape")
		}
		h := c.s[c.i]
		c.i++
		switch {
		case h >= '0' && h <= '9':
			v = v<<4 | rune(h-'0')
		case h >= 'a' && h <= 'f':
			v = v<<4 | rune(h-'a'+10)
		case h >= 'A' && h <= 'F':
			v = v<<4 | rune(h-'A'+10)
		default:
			return 0, fmt.Errorf("invalid hex digit %q in unicode escape", h)
		}
	}
	if !utf8.ValidRune(v) {
		return utf8.RuneError, nil
	}
	return v, nil
}

// langTag reads a language tag from the '@' under the cursor: the
// longest run of bytes tag accepts, which must not be empty.
func (c *cursor) langTag(tag func(byte) bool) (string, error) {
	c.i++
	if s := c.span(tag); s != "" {
		return s, nil
	}
	return "", errors.New("empty language tag")
}

// datatype reads "^^" from the '^' under the cursor and the datatype
// IRI that follows. ok is false, with the cursor after the "^^", when
// no IRI follows.
func (c *cursor) datatype() (dt string, ok bool, err error) {
	c.i++
	if !c.at('^') {
		if !c.done() {
			c.i++
		}
		return "", false, errors.New("expected ^^ before datatype")
	}
	c.i++
	if !c.at('<') {
		return "", false, nil
	}
	dt, err = c.iri()
	return dt, err == nil, err
}
