package kb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/tokenize"
)

const sampleNT = `
<http://kb1.org/Paris> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://kb1.org/City> .
<http://kb1.org/Paris> <http://www.w3.org/2000/01/rdf-schema#label> "Paris" .
<http://kb1.org/Paris> <http://kb1.org/country> <http://kb1.org/France> .
<http://kb1.org/Paris> <http://kb1.org/population> "2161000" .
<http://kb1.org/France> <http://www.w3.org/2000/01/rdf-schema#label> "France" .
<http://kb1.org/Paris> <http://www.w3.org/2002/07/owl#sameAs> <http://kb2.org/paris_fr> .
`

// readInto adds the descriptions of an RDF document to c.
func readInto(c *Collection, syn Syntax, kbName, doc string) error {
	descs, err := Read(syn, kbName, strings.NewReader(doc))
	for i := range descs {
		c.Add(&descs[i])
	}
	return err
}

func loadSample(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection()
	if err := readInto(c, NTriples, "kb1", sampleNT); err != nil {
		t.Fatalf("Read: %v", err)
	}
	return c
}

func TestLoadTriples(t *testing.T) {
	c := loadSample(t)
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2 (Paris, France)", c.Len())
	}
	id, ok := c.IDOf("kb1", "http://kb1.org/Paris")
	if !ok {
		t.Fatal("Paris not found")
	}
	d := c.Desc(id)
	if len(d.Types) != 1 || d.Types[0] != "http://kb1.org/City" {
		t.Errorf("Types=%v", d.Types)
	}
	if len(d.Attrs) != 2 {
		t.Errorf("Attrs=%v, want label+population", d.Attrs)
	}
	// owl:sameAs must not become a link; country must.
	if len(d.Links) != 1 || d.Links[0] != "http://kb1.org/France" {
		t.Errorf("Links=%v", d.Links)
	}
	if d.Label() != "Paris" {
		t.Errorf("Label=%q", d.Label())
	}
}

func TestLabelFallsBackToURI(t *testing.T) {
	d := &Description{URI: "http://kb1.org/Berlin_City", KB: "kb1"}
	if d.Label() != "Berlin_City" {
		t.Errorf("Label=%q, want URI infix", d.Label())
	}
}

func TestAddMerges(t *testing.T) {
	c := NewCollection()
	id1 := c.Add(&Description{URI: "u", KB: "a", Attrs: []Attribute{{"p", "v1"}}})
	id2 := c.Add(&Description{URI: "u", KB: "a", Attrs: []Attribute{{"p", "v2"}}})
	if id1 != id2 {
		t.Fatalf("same KB+URI got distinct ids %d, %d", id1, id2)
	}
	if len(c.Desc(id1).Attrs) != 2 {
		t.Errorf("merge lost attributes: %v", c.Desc(id1).Attrs)
	}
	// Same URI in a different KB is a distinct description.
	id3 := c.Add(&Description{URI: "u", KB: "b"})
	if id3 == id1 {
		t.Error("cross-KB same URI collapsed")
	}
	if !c.CrossKB(id1, id3) || c.CrossKB(id1, id2) {
		t.Error("CrossKB wrong")
	}
	if c.NumKBs() != 2 || c.KBName(0) != "a" || c.KBName(1) != "b" {
		t.Errorf("KB bookkeeping wrong: %d %s %s", c.NumKBs(), c.KBName(0), c.KBName(1))
	}
}

func TestNeighbors(t *testing.T) {
	c := loadSample(t)
	paris, _ := c.IDOf("kb1", "http://kb1.org/Paris")
	france, _ := c.IDOf("kb1", "http://kb1.org/France")
	if got := c.Neighbors(paris); !reflect.DeepEqual(got, []int{france}) {
		t.Errorf("Neighbors(Paris)=%v, want [%d]", got, france)
	}
	if got := c.Neighbors(france); got != nil {
		t.Errorf("Neighbors(France)=%v, want nil", got)
	}
}

func TestNeighborsSkipsDanglingAndSelf(t *testing.T) {
	c := NewCollection()
	id := c.Add(&Description{URI: "a", KB: "k", Links: []string{"missing", "a", "b", "b"}})
	c.Add(&Description{URI: "b", KB: "k"})
	got := c.Neighbors(id)
	b, _ := c.IDOf("k", "b")
	if !reflect.DeepEqual(got, []int{b}) {
		t.Errorf("Neighbors=%v, want [%d]", got, b)
	}
}

func TestDescriptionTokens(t *testing.T) {
	d := &Description{
		URI: "http://kb1.org/New_York_City",
		KB:  "kb1",
		Attrs: []Attribute{
			{"http://kb1.org/label", "New York"},
			{"http://kb1.org/nick", "Big Apple"},
		},
	}
	got := d.Tokens(tokenize.Default())
	want := []string{"new", "york", "city", "big", "apple"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens=%v, want %v", got, want)
	}
}

func TestCollectionTokenCache(t *testing.T) {
	c := loadSample(t)
	paris, _ := c.IDOf("kb1", "http://kb1.org/Paris")
	opts := tokenize.Default()
	t1 := c.Tokens(paris, opts)
	t2 := c.Tokens(paris, opts)
	if !reflect.DeepEqual(t1, t2) {
		t.Error("cache returned different tokens")
	}
	// Changing options invalidates the cache.
	opts2 := opts
	opts2.MinLength = 6 // drops "paris" (5 runes)
	t3 := c.Tokens(paris, opts2)
	if reflect.DeepEqual(t1, t3) {
		t.Error("options change did not rebuild cache")
	}
}

// TestAddPreservesTokenCache pins the append-only cache discipline
// incremental ingestion relies on: adding a fresh description leaves
// existing cached token slices untouched (same backing array), and a
// merge-Add invalidates only the merged id's slot.
func TestAddPreservesTokenCache(t *testing.T) {
	c := loadSample(t)
	opts := tokenize.Default()
	paris, _ := c.IDOf("kb1", "http://kb1.org/Paris")
	before := c.Tokens(paris, opts)

	// Appending a new description must not reset the cache.
	nid := c.Add(&Description{URI: "http://kb1.org/Nice", KB: "kb1",
		Attrs: []Attribute{{"http://kb1.org/label", "Nice Riviera"}}})
	after := c.Tokens(paris, opts)
	if len(before) == 0 || &before[0] != &after[0] {
		t.Error("Add of a new description rebuilt the existing token cache")
	}
	if got := c.Tokens(nid, opts); len(got) == 0 {
		t.Errorf("new id has no tokens: %v", got)
	}

	// A merge-Add invalidates the merged id only.
	nice := c.Tokens(nid, opts)
	c.Add(&Description{URI: "http://kb1.org/Paris", KB: "kb1",
		Attrs: []Attribute{{"http://kb1.org/nick", "lutetia"}}})
	merged := c.Tokens(paris, opts)
	found := false
	for _, tok := range merged {
		if tok == "lutetia" {
			found = true
		}
	}
	if !found {
		t.Errorf("merged tokens %v missing new evidence", merged)
	}
	if got := c.Tokens(nid, opts); &got[0] != &nice[0] {
		t.Error("merge-Add invalidated an unrelated id's cache entry")
	}
}

// TestCompact pins the id-space compaction contract: live descriptions
// move into a fresh collection under dense ids in old-id order, the
// returned mapping marks tombstones with -1, lookups and KB bookkeeping
// work against the new ids, the token cache is carried over (no
// re-tokenization), and the compacted collection starts with no
// tombstones.
func TestCompact(t *testing.T) {
	c := NewCollection()
	opts := tokenize.Default()
	var ids []int
	for _, u := range []string{"a", "b", "c", "d", "e"} {
		ids = append(ids, c.Add(&Description{URI: u, KB: "k1",
			Attrs: []Attribute{{"p", "value " + u}}}))
	}
	other := c.Add(&Description{URI: "a", KB: "k2",
		Attrs: []Attribute{{"p", "other kb"}}})
	cached := c.Tokens(ids[2], opts) // warm one slot of the cache
	c.Evict(ids[1])
	c.Evict(ids[3])

	nc, oldToNew := c.Compact()
	if len(oldToNew) != c.Len() {
		t.Fatalf("mapping covers %d ids, want %d", len(oldToNew), c.Len())
	}
	want := []int{0, -1, 1, -1, 2, 3}
	if !reflect.DeepEqual(oldToNew, want) {
		t.Fatalf("oldToNew=%v, want %v (dense, old-id order, -1 for tombstones)", oldToNew, want)
	}
	if nc.Len() != 4 || nc.NumAlive() != 4 || nc.Tombstones() != 0 {
		t.Fatalf("compacted: Len=%d NumAlive=%d Tombstones=%d, want 4/4/0",
			nc.Len(), nc.NumAlive(), nc.Tombstones())
	}
	for oid, nid := range oldToNew {
		if nid < 0 {
			continue
		}
		if nc.Desc(nid) == c.Desc(oid) || !reflect.DeepEqual(*nc.Desc(nid), *c.Desc(oid)) {
			t.Fatalf("id %d→%d is not its own copy of the description", oid, nid)
		}
	}
	if got, ok := nc.IDOf("k2", "a"); !ok || got != oldToNew[other] {
		t.Fatalf("IDOf(k2,a)=%d,%v — byURI index broken", got, ok)
	}
	if got := nc.IDsOfURI("a"); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("IDsOfURI(a)=%v, want [0 3] — anyURI index broken", got)
	}
	if _, ok := nc.IDOf("k1", "b"); ok || nc.IDsOfURI("b") != nil {
		t.Fatal("a tombstoned URI resolves after compaction")
	}
	if nc.NumKBs() != 2 || nc.NumLiveKBs() != 2 {
		t.Fatalf("KB bookkeeping: NumKBs=%d NumLiveKBs=%d, want 2/2", nc.NumKBs(), nc.NumLiveKBs())
	}
	// The warmed cache slot must carry over — same backing array, so
	// compaction never pays a re-tokenization.
	carried := nc.Tokens(oldToNew[ids[2]], opts)
	if len(cached) == 0 || &carried[0] != &cached[0] {
		t.Fatal("token cache not carried across compaction")
	}
	// The original is untouched — compaction is a pure read, and
	// extending a description in the copy leaves the original's alone.
	nc.Add(&Description{URI: "a", KB: "k1", Attrs: []Attribute{{"p", "late"}}})
	if got := len(c.Desc(ids[0]).Attrs); got != 1 {
		t.Fatalf("extending the copy's description grew the original's to %d attributes", got)
	}
	if c.NumAlive() != 4 || c.Tombstones() != 2 {
		t.Fatalf("source mutated: NumAlive=%d Tombstones=%d", c.NumAlive(), c.Tombstones())
	}

	// A KB compacted away whole keeps its name and index: HasKB still
	// knows it, it no longer counts as live, and a later description of
	// it lands under its old index.
	nc.Evict(nc.Len() - 1) // k2's only description
	gone, _ := nc.Compact()
	if !gone.HasKB("k2") || gone.NumKBs() != 2 || gone.NumLiveKBs() != 1 || gone.LiveIDsOfKB("k2") != nil {
		t.Fatalf("k2 compacted away: HasKB=%v NumKBs=%d NumLiveKBs=%d LiveIDsOfKB=%v, want true/2/1/nil",
			gone.HasKB("k2"), gone.NumKBs(), gone.NumLiveKBs(), gone.LiveIDsOfKB("k2"))
	}
	back := gone.Add(&Description{URI: "b", KB: "k2"})
	if gone.KBOf(back) != c.KBOf(other) || gone.NumLiveKBs() != 2 {
		t.Fatalf("k2 came back under index %d with %d live KBs, want index %d and 2",
			gone.KBOf(back), gone.NumLiveKBs(), c.KBOf(other))
	}
}

func TestStats(t *testing.T) {
	c := loadSample(t)
	s := c.Stats()
	if s.Descriptions != 2 || s.KBs != 1 {
		t.Errorf("Stats=%+v", s)
	}
	if s.Attributes != 3 || s.Links != 1 {
		t.Errorf("Stats=%+v", s)
	}
	if !strings.Contains(s.String(), "descriptions=2") {
		t.Errorf("String=%q", s.String())
	}
}

func TestGroundTruthClasses(t *testing.T) {
	g := NewGroundTruth()
	g.AddClass(0, 1)
	g.AddClass(2, 3)
	g.AddClass(1, 2) // merges both classes
	if !g.Match(0, 3) {
		t.Error("merged class not matching")
	}
	if g.Match(0, 4) || g.Match(4, 5) {
		t.Error("unknown ids must not match")
	}
	if g.ClassOf(0) != g.ClassOf(3) {
		t.Error("ClassOf differs within a class")
	}
	if g.ClassOf(99) != -1 {
		t.Error("unknown ClassOf should be -1")
	}
	classes := g.Classes()
	if len(classes) != 1 || !reflect.DeepEqual(classes[0], []int{0, 1, 2, 3}) {
		t.Errorf("Classes=%v", classes)
	}
	if g.NumMatchingPairs() != 6 {
		t.Errorf("NumMatchingPairs=%d, want 6", g.NumMatchingPairs())
	}
}

func TestGroundTruthCrossKBPairs(t *testing.T) {
	c := NewCollection()
	a0 := c.Add(&Description{URI: "x", KB: "a"})
	a1 := c.Add(&Description{URI: "y", KB: "a"})
	b0 := c.Add(&Description{URI: "x", KB: "b"})
	g := NewGroundTruth()
	g.AddClass(a0, a1, b0) // 3 pairs total, 2 cross-KB
	if got := g.CrossKBMatchingPairs(c); got != 2 {
		t.Errorf("CrossKBMatchingPairs=%d, want 2", got)
	}
}

func TestLoadSameAs(t *testing.T) {
	c := NewCollection()
	c.Add(&Description{URI: "http://kb1.org/Paris", KB: "kb1"})
	c.Add(&Description{URI: "http://kb2.org/paris_fr", KB: "kb2"})
	triples, err := rdf.ParseString(
		`<http://kb1.org/Paris> <http://www.w3.org/2002/07/owl#sameAs> <http://kb2.org/paris_fr> .
<http://kb1.org/Paris> <http://www.w3.org/2002/07/owl#sameAs> <http://kb3.org/missing> .`)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroundTruth()
	missing := g.LoadSameAs(c, triples)
	if missing != 1 {
		t.Errorf("missing=%d, want 1", missing)
	}
	a, _ := c.IDOf("kb1", "http://kb1.org/Paris")
	b, _ := c.IDOf("kb2", "http://kb2.org/paris_fr")
	if !g.Match(a, b) {
		t.Error("sameAs pair not matched")
	}
}

func TestParseSameAs(t *testing.T) {
	c := NewCollection()
	c.Add(&Description{URI: "a", KB: "k1"})
	c.Add(&Description{URI: "b", KB: "k2"})
	g := NewGroundTruth()
	_, err := g.ParseSameAs(c, strings.NewReader(`<a> <http://www.w3.org/2002/07/owl#sameAs> <b> .`))
	if err != nil {
		t.Fatalf("ParseSameAs: %v", err)
	}
	if g.NumMatchingPairs() != 1 {
		t.Errorf("pairs=%d", g.NumMatchingPairs())
	}
	if _, err := g.ParseSameAs(c, strings.NewReader("garbage")); err == nil {
		t.Error("malformed stream accepted")
	}
}

func TestLoadErrors(t *testing.T) {
	c := NewCollection()
	for _, syn := range []Syntax{NTriples, NQuads, Turtle} {
		if err := readInto(c, syn, "bad", "not ntriples"); err == nil {
			t.Errorf("syntax %d accepted garbage", syn)
		}
	}
	if c.Len() != 0 {
		t.Errorf("a failed read added %d descriptions", c.Len())
	}
}

func TestBlankNodeSubjects(t *testing.T) {
	c := NewCollection()
	err := readInto(c, NTriples, "k", `_:b1 <http://p/label> "anon" .`)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := c.IDOf("k", "_:b1")
	if !ok {
		t.Fatal("blank subject not loaded")
	}
	if c.Desc(id).Attrs[0].Value != "anon" {
		t.Error("blank node attrs wrong")
	}
}

func TestBuildProfile(t *testing.T) {
	c := loadSample(t)
	p := c.BuildProfile(tokenize.Default())
	if len(p.PerKB) != 1 || p.PerKB[0].Name != "kb1" {
		t.Fatalf("PerKB=%v", p.PerKB)
	}
	kp := p.PerKB[0]
	if kp.Descriptions != 2 || kp.Predicates != 2 {
		t.Errorf("profile=%+v", kp)
	}
	if kp.AttrsPerDesc != 1.5 { // 3 attrs over 2 descriptions
		t.Errorf("AttrsPerDesc=%v", kp.AttrsPerDesc)
	}
	if p.DistinctTokens == 0 {
		t.Error("no tokens profiled")
	}
	// Paris links France: one description with degree 1 each.
	if p.DegreeHistogram[1] != 2 {
		t.Errorf("degree histogram=%v", p.DegreeHistogram)
	}
	var sb strings.Builder
	p.Fprint(&sb)
	if !strings.Contains(sb.String(), "kb1") || !strings.Contains(sb.String(), "distinct tokens") {
		t.Errorf("Fprint output:\n%s", sb.String())
	}
}

func TestLoadQuads(t *testing.T) {
	c := NewCollection()
	doc := `
<http://dbp/Paris> <http://dbp/name> "Paris" <http://graphs/dbp> .
<http://geo/2988> <http://geo/label> "Paris" <http://graphs/geo> .
<http://x/extra> <http://x/p> "default graph" .
`
	if err := readInto(c, NQuads, "crawl", doc); err != nil {
		t.Fatal(err)
	}
	if c.NumKBs() != 3 {
		t.Fatalf("NumKBs=%d, want 3 (two graphs + default)", c.NumKBs())
	}
	a, okA := c.IDOf("http://graphs/dbp", "http://dbp/Paris")
	b, okB := c.IDOf("http://graphs/geo", "http://geo/2988")
	if !okA || !okB {
		t.Fatal("graph-named KBs missing")
	}
	if !c.CrossKB(a, b) {
		t.Error("different graphs should be different KBs")
	}
	if _, ok := c.IDOf("crawl", "http://x/extra"); !ok {
		t.Error("default-graph statement lost")
	}
	if err := readInto(c, NQuads, "crawl", "garbage"); err == nil {
		t.Error("malformed quads accepted")
	}
}

// TestReadSyntaxes reads one KB from each syntax: N-Triples, the same
// statements as N-Quads in the default graph, and Turtle must yield
// the same descriptions; SyntaxOf picks Turtle by file suffix only.
func TestReadSyntaxes(t *testing.T) {
	ttl := `@prefix kb1: <http://kb1.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
kb1:Paris a kb1:City ; rdfs:label "Paris" ; kb1:country kb1:France ; kb1:population "2161000" ;
  <http://www.w3.org/2002/07/owl#sameAs> <http://kb2.org/paris_fr> .
kb1:France rdfs:label "France" .
`
	want, err := Read(NTriples, "kb1", strings.NewReader(sampleNT))
	if err != nil || len(want) != 2 {
		t.Fatalf("N-Triples: %v, %d descriptions", err, len(want))
	}
	for syn, doc := range map[Syntax]string{NQuads: sampleNT, Turtle: ttl} {
		got, err := Read(syn, "kb1", strings.NewReader(doc))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("syntax %d: %v\ngot  %+v\nwant %+v", syn, err, got, want)
		}
	}
	for path, want := range map[string]Syntax{"a.ttl": Turtle, "a.turtle": Turtle, "a.nt": NTriples, "a.nq": NTriples, "ttl": NTriples} {
		if got := SyntaxOf(path); got != want {
			t.Errorf("SyntaxOf(%q) = %d, want %d", path, got, want)
		}
	}
}

func TestWarmTokens(t *testing.T) {
	c := loadSample(t)
	opts := tokenize.Default()
	// The warmed cache must hold exactly what lazy Tokens computes.
	var want [][]string
	for id := 0; id < c.Len(); id++ {
		want = append(want, c.descs[id].Tokens(opts))
	}
	got := c.WarmTokens(opts, 4)
	if len(got) != c.Len() {
		t.Fatalf("WarmTokens returned %d rows, want %d", len(got), c.Len())
	}
	for id := range want {
		if len(want[id]) == 0 && len(got[id]) == 0 {
			continue // lazy nil vs warmed empty slice both mean "no tokens"
		}
		if !reflect.DeepEqual(got[id], want[id]) {
			t.Errorf("id %d: warmed tokens %v, want %v", id, got[id], want[id])
		}
	}
	// After warming, concurrent Tokens reads are cache hits — race-free
	// under -race by construction.
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for id := 0; id < c.Len(); id++ {
				c.Tokens(id, opts)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	// Changing options invalidates and rewarms.
	plain := tokenize.Options{MinLength: 1}
	rewarmed := c.WarmTokens(plain, 2)
	for id := 0; id < c.Len(); id++ {
		if !reflect.DeepEqual(rewarmed[id], c.Tokens(id, plain)) {
			t.Errorf("id %d: rewarmed tokens diverge from Tokens", id)
		}
	}
}

func TestEvictTombstones(t *testing.T) {
	c := NewCollection()
	add := func(kbName, uri string, links ...string) int {
		return c.Add(&Description{URI: uri, KB: kbName, Links: links,
			Attrs: []Attribute{{Predicate: "p", Value: "value of " + uri}}})
	}
	a0 := add("alpha", "http://a/0", "http://a/1")
	a1 := add("alpha", "http://a/1")
	b0 := add("betaKB", "http://b/0")
	b1 := add("betaKB", "http://a/1") // same URI, other KB

	if !c.Evict(a1) {
		t.Fatal("evicting a live id reported false")
	}
	if c.Evict(a1) || c.Evict(-1) || c.Evict(99) {
		t.Fatal("evicting dead or out-of-range ids must be a no-op")
	}
	if c.Alive(a1) || !c.Alive(a0) {
		t.Fatal("tombstone flags wrong")
	}
	if c.NumAlive() != 3 || c.Len() != 4 {
		t.Fatalf("NumAlive=%d Len=%d, want 3/4", c.NumAlive(), c.Len())
	}
	if _, ok := c.IDOf("alpha", "http://a/1"); ok {
		t.Fatal("evicted description still resolves by KB+URI")
	}
	if ids := c.IDsOfURI("http://a/1"); len(ids) != 1 || ids[0] != b1 {
		t.Fatalf("IDsOfURI after evict = %v, want [%d]", ids, b1)
	}
	if ns := c.Neighbors(a0); len(ns) != 0 {
		t.Fatalf("link to an evicted description still resolves: %v", ns)
	}

	// KB liveness: evicting betaKB's only member drops the live count.
	if c.NumLiveKBs() != 2 {
		t.Fatalf("NumLiveKBs = %d, want 2", c.NumLiveKBs())
	}
	c.Evict(b0)
	c.Evict(b1)
	if c.NumLiveKBs() != 1 {
		t.Fatalf("NumLiveKBs after emptying betaKB = %d, want 1", c.NumLiveKBs())
	}
	if !c.HasKB("betaKB") || c.HasKB("nosuch") {
		t.Fatal("HasKB wrong")
	}
	if ids := c.LiveIDsOfKB("betaKB"); ids != nil {
		t.Fatalf("LiveIDsOfKB of an emptied KB = %v, want nil", ids)
	}
	if ids := c.LiveIDsOfKB("alpha"); len(ids) != 1 || ids[0] != a0 {
		t.Fatalf("LiveIDsOfKB(alpha) = %v", ids)
	}
	if st := c.Stats(); st.Descriptions != 1 || st.KBs != 1 {
		t.Fatalf("stats over survivors = %+v", st)
	}

	// Re-adding an evicted KB+URI opens a fresh id; the KB comes back
	// to life.
	back := c.Add(&Description{URI: "http://b/0", KB: "betaKB"})
	if back == b0 {
		t.Fatal("re-add reused a tombstoned id")
	}
	if !c.Alive(back) || c.NumLiveKBs() != 2 {
		t.Fatalf("re-added description not live (liveKBs=%d)", c.NumLiveKBs())
	}
}

// TestEvictClearsTokenSlot: evicting an id clears its token-cache slot
// at once, so the tombstone stops pinning its token slice without
// waiting for a front-end pass; every other slot, and a fresh warm
// over the survivors, is untouched by it.
func TestEvictClearsTokenSlot(t *testing.T) {
	c := loadSample(t)
	opts := tokenize.Default()
	warm := c.WarmTokens(opts, 2)
	gone, kept := 0, 1
	if len(warm[gone]) == 0 || len(warm[kept]) == 0 {
		t.Fatal("sample descriptions carry no tokens")
	}
	keptToks := warm[kept]
	c.Evict(gone)
	if c.tokens[gone] != nil {
		t.Fatalf("evicted id %d still holds its tokens %v", gone, c.tokens[gone])
	}
	if got := c.tokens[kept]; len(got) == 0 || &got[0] != &keptToks[0] {
		t.Fatal("evicting one id cleared another id's slot")
	}
	if rewarmed := c.WarmTokens(opts, 2); rewarmed[gone] != nil {
		t.Fatal("WarmTokens re-tokenized a tombstone")
	}
}

// BenchmarkCompact times the compaction every session pass opens with
// after an eviction wave: 1 000 descriptions over two KBs, each with a
// few attributes and links and a warm token cache, 16 of them evicted.
func BenchmarkCompact(b *testing.B) {
	c := NewCollection()
	for i := range 1000 {
		kbName := []string{"alpha", "beta"}[i%2]
		c.Add(&Description{URI: fmt.Sprintf("http://%s/e%d", kbName, i), KB: kbName,
			Attrs: []Attribute{{"name", fmt.Sprintf("entity %d", i)}, {"year", fmt.Sprint(1900 + i%100)}},
			Links: []string{fmt.Sprintf("http://%s/e%d", kbName, (i+2)%1000)}})
	}
	c.WarmTokens(tokenize.Default(), 1)
	for id := 0; id < 16; id++ {
		c.Evict(id * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c.Compact()
	}
}
