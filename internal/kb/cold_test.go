package kb

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/store"
	"repro/internal/tokenize"
)

func coldDesc(kb string, i int) *Description {
	return &Description{
		URI:   fmt.Sprintf("http://%s.example.org/e%d", kb, i),
		KB:    kb,
		Types: []string{fmt.Sprintf("http://schema.org/T%d", i%3)},
		Attrs: []Attribute{
			{Predicate: "http://www.w3.org/2000/01/rdf-schema#label", Value: fmt.Sprintf("Entity %d common", i)},
			{Predicate: "http://schema.org/note", Value: fmt.Sprintf("note %d from %s", i, kb)},
		},
		Links: []string{fmt.Sprintf("http://%s.example.org/e%d", kb, (i+1)%16)},
	}
}

// coldVariants returns one legacy collection and one per store backend,
// all loaded identically by the given script.
func coldVariants(t *testing.T, script func(c *Collection)) map[string]*Collection {
	t.Helper()
	out := map[string]*Collection{"legacy": NewCollection()}
	for _, backend := range []string{"mem", "disk"} {
		c := NewCollection()
		var s store.Store
		if backend == "mem" {
			s = store.NewMem()
		} else {
			d, err := store.OpenDisk(t.TempDir(), store.DiskOptions{Reset: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			s = d
		}
		if err := c.AttachStore(s, 0); err != nil {
			t.Fatal(err)
		}
		out[backend] = c
	}
	for name, c := range out {
		script(c)
		if err := c.ColdErr(); err != nil {
			t.Fatalf("%s: cold error after script: %v", name, err)
		}
	}
	return out
}

// requireSameCollections asserts every observable read of the
// collections agrees with the legacy (all-resident) reference.
func requireSameCollections(t *testing.T, cs map[string]*Collection) {
	t.Helper()
	ref := cs["legacy"]
	opts := tokenize.Options{}
	for name, c := range cs {
		if name == "legacy" {
			continue
		}
		if c.Len() != ref.Len() || c.NumAlive() != ref.NumAlive() || c.NumLiveKBs() != ref.NumLiveKBs() {
			t.Fatalf("%s: shape diverges: len=%d/%d alive=%d/%d", name, c.Len(), ref.Len(), c.NumAlive(), ref.NumAlive())
		}
		if c.Stats() != ref.Stats() {
			t.Fatalf("%s: stats diverge:\n got %v\nwant %v", name, c.Stats(), ref.Stats())
		}
		for id := 0; id < ref.Len(); id++ {
			if c.Alive(id) != ref.Alive(id) {
				t.Fatalf("%s: liveness of %d diverges", name, id)
			}
			if !ref.Alive(id) {
				continue
			}
			want, got := ref.Desc(id), c.Desc(id)
			if got.URI != want.URI || got.KB != want.KB ||
				!reflect.DeepEqual(got.Types, want.Types) ||
				!reflect.DeepEqual(got.Attrs, want.Attrs) ||
				!reflect.DeepEqual(append([]string(nil), got.Links...), append([]string(nil), want.Links...)) {
				t.Fatalf("%s: description %d diverges:\n got %+v\nwant %+v", name, id, got, want)
			}
			if c.URIOf(id) != want.URI {
				t.Fatalf("%s: URIOf(%d) = %q, want %q", name, id, c.URIOf(id), want.URI)
			}
			if !reflect.DeepEqual(c.Tokens(id, opts), ref.Tokens(id, opts)) {
				t.Fatalf("%s: tokens of %d diverge", name, id)
			}
			if !reflect.DeepEqual(c.Neighbors(id), ref.Neighbors(id)) {
				t.Fatalf("%s: neighbors of %d diverge: %v vs %v", name, id, c.Neighbors(id), ref.Neighbors(id))
			}
		}
	}
}

// TestColdDifferential proves a store-backed collection is observably
// identical to the legacy all-resident one across adds, merges and
// evictions.
func TestColdDifferential(t *testing.T) {
	cs := coldVariants(t, func(c *Collection) {
		for i := 0; i < 16; i++ {
			c.Add(coldDesc("dbpedia", i))
			c.Add(coldDesc("freebase", i))
		}
		for i := 0; i < 16; i += 2 { // merge-Adds: bodies grow
			d := coldDesc("dbpedia", i)
			d.Attrs = append(d.Attrs, Attribute{Predicate: "http://schema.org/extra", Value: fmt.Sprintf("merged %d", i)})
			c.Add(d)
		}
		for _, id := range []int{3, 7, 20} {
			c.Evict(id)
		}
	})
	requireSameCollections(t, cs)

	// Merged bodies must read back with the merged attribute.
	for name, c := range cs {
		d := c.Desc(0)
		found := false
		for _, a := range d.Attrs {
			if a.Value == "merged 0" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: merge lost on spilled body: %+v", name, d.Attrs)
		}
	}
}

// TestColdCompactSurvivors: compacting a store-backed collection
// rewrites survivors under a new epoch, and every survivor must read
// back its full body afterwards — a compaction that copied spilled
// stubs, or left the token cache pointing at the old epoch's records,
// fails this. Run with -race: WarmTokens pages bodies in from
// concurrent workers before and after the epoch switch.
func TestColdCompactSurvivors(t *testing.T) {
	cs := coldVariants(t, func(c *Collection) {
		for i := 0; i < 16; i++ {
			c.Add(coldDesc("dbpedia", i))
			c.Add(coldDesc("freebase", i))
		}
	})
	opts := tokenize.Options{}
	for name, c := range cs {
		c.WarmTokens(opts, 4) // populate token cache pre-compaction
		for id := 8; id < 16; id++ {
			c.Evict(id)
		}
		nc, oldToNew := c.Compact()
		if err := nc.ColdErr(); err != nil {
			t.Fatalf("%s: compaction: %v", name, err)
		}
		if nc.Spilled() != c.Spilled() {
			t.Fatalf("%s: compaction dropped the store attachment", name)
		}
		if nc.Spilled() && nc.ColdEpoch() != c.ColdEpoch()+1 {
			t.Fatalf("%s: compaction kept epoch %d", name, nc.ColdEpoch())
		}
		// The superseded epoch is dropped exactly as the session does
		// after the swap commits; survivors must not depend on it.
		if err := c.DropCold(); err != nil {
			t.Fatalf("%s: DropCold: %v", name, err)
		}
		nc.WarmTokens(opts, 4)
		for id := 0; id < c.Len(); id++ {
			nid := oldToNew[id]
			if !c.Alive(id) {
				if nid != -1 {
					t.Fatalf("%s: dead id %d mapped to %d", name, id, nid)
				}
				continue
			}
			d := nc.Desc(nid)
			if d.URI != c.URIOf(id) {
				t.Fatalf("%s: survivor %d→%d URI %q, want %q", name, id, nid, d.URI, c.URIOf(id))
			}
			if len(d.Attrs) != 2 || len(d.Types) != 1 || len(d.Links) != 1 {
				t.Fatalf("%s: survivor %d→%d lost its body: %+v", name, id, nid, d)
			}
			if len(nc.Tokens(nid, opts)) == 0 {
				t.Fatalf("%s: survivor %d→%d has no tokens", name, id, nid)
			}
		}
		if err := nc.ColdErr(); err != nil {
			t.Fatalf("%s: post-compaction reads: %v", name, err)
		}
	}
}

// TestColdAttachSpillsResident attaches a store to a collection that
// already holds descriptions (the recovery path replays into a fresh
// collection, but an explicit corpus load may precede attachment).
func TestColdAttachSpillsResident(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 8; i++ {
		c.Add(coldDesc("dbpedia", i))
	}
	s := store.NewMem()
	if err := c.AttachStore(s, 0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Keys != 8 {
		t.Fatalf("attach spilled %d bodies, want 8", st.Keys)
	}
	for i := 0; i < 8; i++ {
		if got := c.Desc(i); got.URI != coldDesc("dbpedia", i).URI || len(got.Attrs) != 2 {
			t.Fatalf("desc %d lost on attach: %+v", i, got)
		}
	}
	if st := s.Stats(); st.Gets != 8 {
		t.Fatalf("8 spilled reads made %d store reads, want 8", st.Gets)
	}
}

func TestColdEncodeRoundTrip(t *testing.T) {
	for _, d := range []*Description{
		{URI: "u", KB: "k"},
		{URI: "u", KB: "k", Types: []string{"t1", ""}, Attrs: []Attribute{{"p", "v"}, {"", ""}}, Links: []string{"l1", "l2", ""}},
		coldDesc("dbpedia", 3),
	} {
		got, err := decodeDesc(encodeDesc(d), d.URI, d.KB)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("round trip diverges:\n got %+v\nwant %+v", got, d)
		}
	}
	// Corrupt bodies must error, never panic.
	full := encodeDesc(coldDesc("dbpedia", 1))
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeDesc(full[:cut], "u", "k"); err == nil {
			t.Fatalf("truncated body at %d decoded cleanly", cut)
		}
	}
}
