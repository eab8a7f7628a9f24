// Package tokenize extracts the schema-agnostic token evidence that
// Minoan ER's blocking layer operates on. Tokens come from attribute
// values and — following the prefix-infix-suffix insight for Linked
// Data — from the informative "infix" part of entity URIs.
//
// The tokenizer is deliberately aggressive and lossy: blocking only
// needs *recall* of shared evidence between matching descriptions, so
// it lower-cases, strips punctuation, splits camelCase, and folds
// common stop words away.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Options controls tokenization. The zero value is NOT useful; use
// Default() or fill every field intentionally.
type Options struct {
	// MinLength drops tokens shorter than this many runes.
	MinLength int
	// MaxLength truncates tokens longer than this many runes (0 = no cap).
	MaxLength int
	// SplitCamelCase breaks "NewYorkCity" into {new, york, city}. URIs in
	// LOD frequently concatenate words this way.
	SplitCamelCase bool
	// DropStopWords removes high-frequency function words that carry no
	// identity evidence and would otherwise create huge useless blocks.
	DropStopWords bool
	// DropNumbersUnder drops pure-digit tokens with fewer digits than
	// this (0 disables). Short numbers (years aside) are noisy evidence.
	DropNumbersUnder int
}

// Default returns the options used throughout the Minoan ER pipeline.
func Default() Options {
	return Options{
		MinLength:        2,
		MaxLength:        40,
		SplitCamelCase:   true,
		DropStopWords:    true,
		DropNumbersUnder: 2,
	}
}

// stopWords is a compact English stop-word list. Schema-agnostic token
// blocking over Web data is dominated by English-labelled KBs; this
// list removes only unambiguous function words.
var stopWords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "he": true, "her": true, "his": true,
	"in": true, "is": true, "it": true, "its": true, "of": true,
	"on": true, "or": true, "she": true, "that": true, "the": true,
	"their": true, "they": true, "this": true, "to": true, "was": true,
	"were": true, "which": true, "with": true,
}

// Tokens splits a literal value into normalized tokens per opts.
// The result preserves first-occurrence order and contains no duplicates.
func Tokens(value string, opts Options) []string {
	if value == "" {
		return nil
	}
	var out []string
	seen := make(map[string]struct{}, 8)
	emit := func(tok string) {
		tok = normalize(tok, opts)
		if tok == "" {
			return
		}
		if _, dup := seen[tok]; dup {
			return
		}
		seen[tok] = struct{}{}
		out = append(out, tok)
	}
	for _, word := range splitWords(value) {
		if opts.SplitCamelCase {
			for _, part := range splitCamel(word) {
				emit(part)
			}
		} else {
			emit(word)
		}
	}
	return out
}

// TokenSet returns the tokens of value as a set.
func TokenSet(value string, opts Options) map[string]struct{} {
	toks := Tokens(value, opts)
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// URITokens extracts tokens from an entity URI's infix: the local name
// after the namespace (prefix) with any numeric version suffix removed.
// For example http://dbpedia.org/resource/New_York_City_2 yields
// {new, york, city}.
func URITokens(uri string, opts Options) []string {
	infix := URIInfix(uri)
	return Tokens(infix, opts)
}

// URIInfix returns the informative middle of a URI per the
// prefix-infix-suffix scheme: strip the namespace prefix (scheme + host
// + path up to the last '/' or '#') and a trailing purely-numeric or
// very short suffix segment.
func URIInfix(uri string) string {
	v := strings.TrimRight(uri, "/#")
	if i := strings.LastIndexAny(v, "/#"); i >= 0 {
		v = v[i+1:]
	}
	// Strip a trailing numeric disambiguation suffix: Name_123 → Name.
	if j := strings.LastIndexAny(v, "_-"); j > 0 {
		tail := v[j+1:]
		if tail != "" && allDigits(tail) {
			v = v[:j]
		}
	}
	return v
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}

// splitWords breaks a string at any rune that is not a letter or digit.
func splitWords(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// splitCamel splits mixed-case words at lower→upper boundaries and
// letter/digit boundaries: "NewYork2City" → ["New","York","2","City"].
// All-upper acronyms stay intact ("USA" → ["USA"]).
func splitCamel(s string) []string {
	runes := []rune(s)
	if len(runes) < 2 {
		return []string{s}
	}
	var parts []string
	start := 0
	for i := 1; i < len(runes); i++ {
		prev, cur := runes[i-1], runes[i]
		boundary := (unicode.IsLower(prev) && unicode.IsUpper(cur)) ||
			(unicode.IsLetter(prev) && unicode.IsDigit(cur)) ||
			(unicode.IsDigit(prev) && unicode.IsLetter(cur)) ||
			// Acronym followed by a word: "HTTPServer" → "HTTP","Server".
			(i+1 < len(runes) && unicode.IsUpper(prev) && unicode.IsUpper(cur) && unicode.IsLower(runes[i+1]))
		if boundary {
			parts = append(parts, string(runes[start:i]))
			start = i
		}
	}
	parts = append(parts, string(runes[start:]))
	return parts
}

func normalize(tok string, opts Options) string {
	tok = strings.ToLower(tok)
	// Truncate before the length gate, so MinLength holds for what is
	// actually emitted (with MaxLength < MinLength every token drops —
	// degenerate, but coherent). One rune scan: this is the tokenize
	// hot path under WarmTokens, which every front-end pass runs.
	n := utf8.RuneCountInString(tok)
	if opts.MaxLength > 0 && n > opts.MaxLength {
		tok = string([]rune(tok)[:opts.MaxLength])
		n = opts.MaxLength
	}
	if n < opts.MinLength {
		return ""
	}
	if opts.DropStopWords && stopWords[tok] {
		return ""
	}
	if opts.DropNumbersUnder > 0 && allDigits(tok) && len(tok) < opts.DropNumbersUnder {
		return ""
	}
	return tok
}
