// Package kb models entity descriptions and knowledge bases for entity
// resolution over the Web of Data.
//
// A Description is the unit of resolution: one subject URI together
// with its attribute–value pairs (literals) and its links to other
// descriptions (object properties). A Collection assigns dense integer
// ids to descriptions across one or more KBs, indexes neighbors, and
// caches token evidence — everything downstream (blocking,
// meta-blocking, matching, progressive scheduling) works on ids.
package kb

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/parmeta"
	"repro/internal/rdf"
	"repro/internal/tokenize"
)

// Attribute is one predicate–value pair of a description. Only literal
// values carry token evidence; object properties become Links instead.
// The JSON tags are part of the public wire format (minoaner.Attribute
// aliases this type); golden fixtures pin them.
type Attribute struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

// Description is one entity description: the RDF resource rooted at URI
// within a single knowledge base. The JSON tags are part of the public
// wire format (minoaner.Description aliases this type) that the server
// streams and the write-ahead log frames; golden fixtures pin them.
type Description struct {
	// KB names the source knowledge base.
	KB string `json:"kb"`
	// URI identifies the description within its KB.
	URI string `json:"uri"`
	// Types lists rdf:type objects.
	Types []string `json:"types,omitempty"`
	// Attrs lists the literal-valued predicates.
	Attrs []Attribute `json:"attrs,omitempty"`
	// Links lists URIs of linked (neighbor) descriptions in the same KB.
	Links []string `json:"links,omitempty"`
}

// Label returns the best human-readable name: the first rdfs:label
// attribute if present, else the URI infix.
func (d *Description) Label() string {
	for _, a := range d.Attrs {
		if a.Predicate == rdf.RDFSLabel {
			return a.Value
		}
	}
	return tokenize.URIInfix(d.URI)
}

// Tokens returns the description's schema-agnostic token evidence:
// tokens of every attribute value plus the URI infix tokens,
// deduplicated, in first-occurrence order.
func (d *Description) Tokens(opts tokenize.Options) []string {
	seen := make(map[string]struct{}, 16)
	var out []string
	add := func(toks []string) {
		for _, t := range toks {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	add(tokenize.URITokens(d.URI, opts))
	for _, a := range d.Attrs {
		add(tokenize.Tokens(a.Value, opts))
	}
	return out
}

// Collection is an id-addressed set of descriptions drawn from one or
// more knowledge bases. Ids are dense, 0..Len()-1, assigned in insertion
// order. Ids are never reused: removal is by tombstone (Evict), which
// keeps every surviving id — and therefore every downstream structure
// indexed by id — stable while the evicted description stops resolving
// by URI, stops linking, and stops counting.
type Collection struct {
	descs    []*Description
	byURI    map[string]int
	anyURI   map[string][]int // URI → ids across KBs
	kbOf     []int            // id → kb index
	kbNames  []string         // kb index → name
	kbIndex  map[string]int
	kbLive   []int      // kb index → live description count
	liveKBs  int        // KBs with at least one live description
	tokens   [][]string // id → cached token evidence (built lazily)
	tokOpts  tokenize.Options
	hasToken bool
	dead     []bool // id → tombstoned by Evict (nil while nothing evicted)
	numDead  int
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{
		byURI:   make(map[string]int),
		anyURI:  make(map[string][]int),
		kbIndex: make(map[string]int),
	}
}

// Add inserts a description and returns its id. Adding a URI that
// already exists in the same KB merges the attributes, types and links
// into the existing description and returns its id.
//
// The token cache survives an Add: a fresh id gets an empty slot
// (tokenized lazily), and a merged id has only its own slot
// invalidated — so the front-end pass after streaming mutations
// re-tokenizes only what they brought.
func (c *Collection) Add(d *Description) int {
	if id, ok := c.byURI[key(d.KB, d.URI)]; ok {
		ex := c.descs[id]
		ex.Types = append(ex.Types, d.Types...)
		ex.Attrs = append(ex.Attrs, d.Attrs...)
		ex.Links = append(ex.Links, d.Links...)
		if c.hasToken {
			c.tokens[id] = nil
		}
		return id
	}
	id := len(c.descs)
	c.descs = append(c.descs, d)
	c.byURI[key(d.KB, d.URI)] = id
	c.anyURI[d.URI] = append(c.anyURI[d.URI], id)
	ki, ok := c.kbIndex[d.KB]
	if !ok {
		ki = len(c.kbNames)
		c.kbNames = append(c.kbNames, d.KB)
		c.kbIndex[d.KB] = ki
		c.kbLive = append(c.kbLive, 0)
	}
	if c.kbLive[ki] == 0 {
		c.liveKBs++
	}
	c.kbLive[ki]++
	c.kbOf = append(c.kbOf, ki)
	if c.hasToken {
		c.tokens = append(c.tokens, nil)
	}
	if c.dead != nil {
		c.dead = append(c.dead, false)
	}
	return id
}

// Evict tombstones a description: its id stays allocated (so every
// id-indexed structure remains valid) but the description stops
// resolving by URI or KB+URI, stops being anyone's neighbor, and is
// skipped by blocking, matching, and statistics. Its token-cache slot
// is cleared at once, so a tombstone never pins its token slice. Its
// KB+URI may be re-added later under a fresh id. Reports whether the id
// was live; evicting an out-of-range or already-dead id is a no-op.
func (c *Collection) Evict(id int) bool {
	if id < 0 || id >= len(c.descs) || !c.Alive(id) {
		return false
	}
	if c.dead == nil {
		c.dead = make([]bool, len(c.descs))
	}
	c.dead[id] = true
	c.numDead++
	if c.hasToken {
		c.tokens[id] = nil
	}
	uri := c.descs[id].URI
	delete(c.byURI, key(c.kbNames[c.kbOf[id]], uri))
	if ids := c.anyURI[uri]; len(ids) > 0 {
		kept := make([]int, 0, len(ids)-1)
		for _, x := range ids {
			if x != id {
				kept = append(kept, x)
			}
		}
		if len(kept) == 0 {
			delete(c.anyURI, uri)
		} else {
			c.anyURI[uri] = kept
		}
	}
	ki := c.kbOf[id]
	c.kbLive[ki]--
	if c.kbLive[ki] == 0 {
		c.liveKBs--
	}
	return true
}

// Compact returns a copy of the collection holding only the live
// descriptions, re-assigned dense ids in the same relative order,
// together with the old→new id mapping (-1 for tombstoned ids). The
// copy holds its own Description values — an Add that extends one
// appends to the copy's slice headers, never the receiver's — and
// inherits the token cache, so compaction never re-tokenizes; it
// starts with no tombstones — a collection that never held the
// departed descriptions. It keeps every KB name under its old index,
// live descriptions or not, so HasKB and KBOf read as before. The
// receiver is left untouched.
//
// A streaming session compacts before every front-end pass over a
// collection that holds tombstones, so no id-indexed structure — token
// cache, per-node graph arrays, cluster state — pays for a description
// that left.
func (c *Collection) Compact() (*Collection, []int) {
	live := c.NumAlive()
	nc := &Collection{
		descs:   make([]*Description, live),
		byURI:   make(map[string]int, len(c.byURI)),
		anyURI:  make(map[string][]int, len(c.anyURI)),
		kbOf:    make([]int, live),
		kbNames: slices.Clone(c.kbNames),
		kbIndex: maps.Clone(c.kbIndex),
		kbLive:  slices.Clone(c.kbLive),
		liveKBs: c.liveKBs,
	}
	oldToNew := make([]int, len(c.descs))
	bodies := make([]Description, live)
	nid := 0
	for id, d := range c.descs {
		if !c.Alive(id) {
			oldToNew[id] = -1
			continue
		}
		bodies[nid] = *d
		nc.descs[nid] = &bodies[nid]
		nc.kbOf[nid] = c.kbOf[id]
		oldToNew[id] = nid
		nid++
	}
	// Evict unmaps a tombstone from both URI indexes, so every id they
	// hold is live, and each anyURI list stays ascending under the
	// order-preserving renumbering. The lists share one array; each is
	// capped at its length so an Add to one reallocates instead of
	// writing into the next.
	for k, id := range c.byURI {
		nc.byURI[k] = oldToNew[id]
	}
	ids := make([]int, 0, live)
	for uri, old := range c.anyURI {
		lo := len(ids)
		for _, id := range old {
			ids = append(ids, oldToNew[id])
		}
		nc.anyURI[uri] = ids[lo:len(ids):len(ids)]
	}
	if c.hasToken {
		nc.tokens = make([][]string, live)
		nc.tokOpts = c.tokOpts
		nc.hasToken = true
		for id, nid := range oldToNew {
			if nid >= 0 {
				nc.tokens[nid] = c.tokens[id]
			}
		}
	}
	return nc, oldToNew
}

// Tombstones returns how many ids are tombstoned.
func (c *Collection) Tombstones() int { return c.numDead }

// Alive reports whether the id is live (not tombstoned by Evict).
func (c *Collection) Alive(id int) bool { return c.numDead == 0 || !c.dead[id] }

// NumAlive returns the number of live descriptions.
func (c *Collection) NumAlive() int { return len(c.descs) - c.numDead }

// NumLiveKBs returns how many KBs still contribute at least one live
// description — the count that decides clean–clean semantics once
// descriptions can leave.
func (c *Collection) NumLiveKBs() int { return c.liveKBs }

// HasKB reports whether a KB of this name has ever contributed
// descriptions (live or evicted).
func (c *Collection) HasKB(name string) bool {
	_, ok := c.kbIndex[name]
	return ok
}

// LiveIDsOfKB returns the live description ids of the named KB,
// ascending. Unknown names return nil.
func (c *Collection) LiveIDsOfKB(name string) []int {
	ki, ok := c.kbIndex[name]
	if !ok || c.kbLive[ki] == 0 {
		return nil
	}
	out := make([]int, 0, c.kbLive[ki])
	for id := 0; id < len(c.descs); id++ {
		if c.kbOf[id] == ki && c.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}

func key(kb, uri string) string { return kb + "\x00" + uri }

// Len returns the number of descriptions.
func (c *Collection) Len() int { return len(c.descs) }

// Desc returns the description with the given id.
func (c *Collection) Desc(id int) *Description { return c.descs[id] }

// URIOf returns the URI of id.
func (c *Collection) URIOf(id int) string { return c.descs[id].URI }

// KBOf returns the KB index of a description id.
func (c *Collection) KBOf(id int) int { return c.kbOf[id] }

// KBName returns the name of KB index k.
func (c *Collection) KBName(k int) string { return c.kbNames[k] }

// NumKBs returns how many distinct KBs contribute descriptions.
func (c *Collection) NumKBs() int { return len(c.kbNames) }

// IDOf returns the id of the description with the given KB and URI.
func (c *Collection) IDOf(kbName, uri string) (int, bool) {
	id, ok := c.byURI[key(kbName, uri)]
	return id, ok
}

// IDsOfURI returns all ids (across KBs) whose description has this
// URI, in insertion order. The returned slice is shared; do not
// mutate it.
func (c *Collection) IDsOfURI(uri string) []int { return c.anyURI[uri] }

// CrossKB reports whether ids a and b come from different KBs. In
// clean–clean ER only cross-KB pairs are comparable.
func (c *Collection) CrossKB(a, b int) bool { return c.kbOf[a] != c.kbOf[b] }

// Tokens returns the (cached) token evidence for id, tokenized with opts.
// The cache is rebuilt when opts change or descriptions were added.
func (c *Collection) Tokens(id int, opts tokenize.Options) []string {
	if !c.hasToken || c.tokOpts != opts {
		c.tokens = make([][]string, len(c.descs))
		c.tokOpts = opts
		c.hasToken = true
	}
	if c.tokens[id] == nil {
		toks := c.Desc(id).Tokens(opts)
		if toks == nil {
			toks = []string{}
		}
		c.tokens[id] = toks
	}
	return c.tokens[id]
}

// WarmTokens fills the whole token cache for opts with the given
// parallelism and returns it as an id-indexed slice. Tokens itself
// fills the cache lazily per id, which is unsafe under concurrent
// callers; WarmTokens resets the cache single-threaded, then tokenizes
// workers contiguous id ranges on parmeta.ForEach — inline at one
// worker — each writing only its own slots. After it returns,
// concurrent Tokens calls with the same opts are read-only and
// race-free. The front-end engine primes the cache with it before
// token blocking.
func (c *Collection) WarmTokens(opts tokenize.Options, workers int) [][]string {
	if !c.hasToken || c.tokOpts != opts {
		c.tokens = make([][]string, len(c.descs))
		c.tokOpts = opts
		c.hasToken = true
	}
	ranges := parmeta.Ranges(len(c.descs), workers)
	parmeta.ForEach(len(ranges), workers, func(i int) {
		for id := ranges[i].Lo; id < ranges[i].Hi; id++ {
			if c.tokens[id] != nil || !c.Alive(id) {
				continue
			}
			toks := c.Desc(id).Tokens(opts)
			if toks == nil {
				toks = []string{}
			}
			c.tokens[id] = toks
		}
	})
	return c.tokens
}

// Neighbors returns the ids of descriptions linked from id. Targets are
// resolved only within id's own KB: a link whose target URI has no
// description in that KB is skipped, even when another KB holds the
// URI.
func (c *Collection) Neighbors(id int) []int {
	d := c.Desc(id)
	if len(d.Links) == 0 {
		return nil
	}
	var out []int
	seen := make(map[int]struct{}, len(d.Links))
	for _, target := range d.Links {
		nid, ok := c.IDOf(d.KB, target)
		if !ok {
			continue
		}
		if nid == id {
			continue
		}
		if _, dup := seen[nid]; dup {
			continue
		}
		seen[nid] = struct{}{}
		out = append(out, nid)
	}
	return out
}

// DescriptionsFromTriples folds RDF triples into descriptions of the
// named KB, one per subject in first-appearance order, without adding
// them anywhere. Literal objects become attributes, rdf:type objects
// become types, owl:sameAs triples are skipped (they are ground truth,
// not evidence), and other resource objects become links.
func DescriptionsFromTriples(kbName string, triples []rdf.Triple) []*Description {
	descs := describe(kbName, triples)
	out := make([]*Description, len(descs))
	for i := range descs {
		out[i] = &descs[i]
	}
	return out
}

func describe(kbName string, triples []rdf.Triple) []Description {
	index := make(map[string]int)
	var out []Description
	for _, t := range triples {
		if !t.Subject.IsResource() || t.Predicate.Value == rdf.OWLSameAs {
			continue
		}
		subj := subjectKey(t.Subject)
		i, ok := index[subj]
		if !ok {
			i = len(out)
			index[subj] = i
			out = append(out, Description{KB: kbName, URI: subj})
		}
		d := &out[i]
		switch {
		case t.Predicate.Value == rdf.RDFType && t.Object.IsIRI():
			d.Types = append(d.Types, t.Object.Value)
		case t.Object.IsLiteral():
			d.Attrs = append(d.Attrs, Attribute{Predicate: t.Predicate.Value, Value: t.Object.Value})
		case t.Object.IsResource():
			d.Links = append(d.Links, subjectKey(t.Object))
		}
	}
	return out
}

// LoadTriples folds RDF triples into the collection as descriptions of
// the named KB (see DescriptionsFromTriples for the folding rules).
func (c *Collection) LoadTriples(kbName string, triples []rdf.Triple) {
	for _, d := range DescriptionsFromTriples(kbName, triples) {
		c.Add(d)
	}
}

func subjectKey(t rdf.Term) string {
	if t.IsBlank() {
		return "_:" + t.Value
	}
	return t.Value
}

// Syntax names the RDF syntax of a document.
type Syntax int

const (
	NTriples Syntax = iota // one statement per line
	NQuads                 // N-Triples plus an optional graph label per statement
	Turtle                 // prefixes, predicate and object lists, blank-node property lists
)

// SyntaxOf names the syntax of an RDF file by its name: files ending in
// .ttl or .turtle are Turtle, everything else N-Triples.
func SyntaxOf(path string) Syntax {
	if strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle") {
		return Turtle
	}
	return NTriples
}

// Read decodes a document of the given syntax into the descriptions of
// knowledge base kbName (see DescriptionsFromTriples for the folding
// rules). In N-Quads each named graph is a knowledge base of its own,
// named by the graph label — the natural reading of Web-crawl corpora
// like BTC, where the label records the publishing dataset — and
// default-graph statements go to kbName; graphs follow in order of
// first appearance, each in statement order.
func Read(syn Syntax, kbName string, r io.Reader) ([]Description, error) {
	var triples []rdf.Triple
	var err error
	switch syn {
	case NQuads:
		return readQuads(kbName, r)
	case Turtle:
		triples, err = rdf.NewTurtleDecoder(r).DecodeAll()
	default:
		triples, err = rdf.NewDecoder(r).DecodeAll()
	}
	if err != nil {
		return nil, err
	}
	return describe(kbName, triples), nil
}

func readQuads(defaultKB string, r io.Reader) ([]Description, error) {
	quads, err := rdf.NewQuadDecoder(r).DecodeAll()
	if err != nil {
		return nil, err
	}
	perGraph := make(map[string][]rdf.Triple)
	var order []string
	for _, q := range quads {
		name := defaultKB
		if q.Graph != (rdf.Term{}) {
			name = q.Graph.Value
		}
		if _, seen := perGraph[name]; !seen {
			order = append(order, name)
		}
		perGraph[name] = append(perGraph[name], q.Triple)
	}
	var out []Description
	for _, name := range order {
		out = append(out, describe(name, perGraph[name])...)
	}
	return out, nil
}

// Stats summarizes a collection for reporting.
type Stats struct {
	Descriptions int
	KBs          int
	Attributes   int
	Links        int
	Predicates   int
}

// Stats computes summary statistics over the live descriptions.
func (c *Collection) Stats() Stats {
	s := Stats{Descriptions: c.NumAlive(), KBs: c.NumLiveKBs()}
	preds := make(map[string]struct{})
	for id := range c.descs {
		if !c.Alive(id) {
			continue
		}
		d := c.Desc(id)
		s.Attributes += len(d.Attrs)
		s.Links += len(d.Links)
		for _, a := range d.Attrs {
			preds[a.Predicate] = struct{}{}
		}
	}
	s.Predicates = len(preds)
	return s
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("descriptions=%d kbs=%d attributes=%d links=%d predicates=%d",
		s.Descriptions, s.KBs, s.Attributes, s.Links, s.Predicates)
}

// GroundTruth holds the known real-world equivalence classes over
// description ids, used only for evaluation (never by the algorithms).
type GroundTruth struct {
	classOf map[int]int   // id → class
	classes map[int][]int // class → member ids
	next    int
}

// NewGroundTruth returns an empty ground truth.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{classOf: make(map[int]int), classes: make(map[int][]int)}
}

// AddClass registers that all the given ids describe one real-world
// entity. Ids may appear in only one class; re-adding extends the class.
func (g *GroundTruth) AddClass(ids ...int) {
	cls := -1
	for _, id := range ids {
		if c, ok := g.classOf[id]; ok {
			cls = c
			break
		}
	}
	if cls == -1 {
		cls = g.next
		g.next++
	}
	for _, id := range ids {
		if old, ok := g.classOf[id]; ok && old != cls {
			// Merge old class into cls.
			for _, m := range g.classes[old] {
				g.classOf[m] = cls
				g.classes[cls] = append(g.classes[cls], m)
			}
			delete(g.classes, old)
			continue
		}
		if _, ok := g.classOf[id]; !ok {
			g.classOf[id] = cls
			g.classes[cls] = append(g.classes[cls], id)
		}
	}
}

// Match reports whether ids a and b describe the same real-world entity.
func (g *GroundTruth) Match(a, b int) bool {
	ca, ok := g.classOf[a]
	if !ok {
		return false
	}
	cb, ok := g.classOf[b]
	return ok && ca == cb
}

// ClassOf returns the class id of a description, or -1 if unknown.
func (g *GroundTruth) ClassOf(id int) int {
	if c, ok := g.classOf[id]; ok {
		return c
	}
	return -1
}

// Classes returns every class with at least two members (the only ones
// that generate matching pairs), each sorted ascending, ordered by
// smallest member.
func (g *GroundTruth) Classes() [][]int {
	var out [][]int
	for _, members := range g.classes {
		if len(members) < 2 {
			continue
		}
		m := append([]int(nil), members...)
		sort.Ints(m)
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// NumMatchingPairs returns the total number of distinct matching pairs
// implied by the equivalence classes.
func (g *GroundTruth) NumMatchingPairs() int {
	total := 0
	for _, members := range g.classes {
		n := len(members)
		total += n * (n - 1) / 2
	}
	return total
}

// CrossKBMatchingPairs counts matching pairs that span two different
// KBs of the collection — the denominator for clean–clean recall.
func (g *GroundTruth) CrossKBMatchingPairs(c *Collection) int {
	total := 0
	for _, members := range g.classes {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if c.CrossKB(members[i], members[j]) {
					total++
				}
			}
		}
	}
	return total
}

// LoadSameAs ingests owl:sameAs triples as ground truth: both subject
// and object URIs are looked up in any KB of the collection and their
// ids are placed in one class. Unresolvable URIs are reported.
func (g *GroundTruth) LoadSameAs(c *Collection, triples []rdf.Triple) (missing int) {
	for _, t := range triples {
		if t.Predicate.Value != rdf.OWLSameAs || !t.Subject.IsResource() || !t.Object.IsResource() {
			continue
		}
		as := c.IDsOfURI(subjectKey(t.Subject))
		bs := c.IDsOfURI(subjectKey(t.Object))
		if len(as) == 0 || len(bs) == 0 {
			missing++
			continue
		}
		ids := make([]int, 0, len(as)+len(bs))
		ids = append(ids, as...)
		ids = append(ids, bs...)
		g.AddClass(ids...)
	}
	return missing
}

// ParseSameAs reads an N-Triples stream of owl:sameAs links into the
// ground truth.
func (g *GroundTruth) ParseSameAs(c *Collection, r io.Reader) (int, error) {
	triples, err := rdf.NewDecoder(r).DecodeAll()
	if err != nil {
		return 0, fmt.Errorf("kb: ground truth: %w", err)
	}
	return g.LoadSameAs(c, triples), nil
}
