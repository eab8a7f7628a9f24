package core

import (
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// TestReseedFreshEqualsNewResolver pins the property the streaming
// equivalence proof rests on: reseeding a resolver that has executed
// nothing is indistinguishable from constructing it fresh over the new
// matcher and edge list — the trace is bit-identical for any worker
// count and budget.
func TestReseedFreshEqualsNewResolver(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(92, 150, datagen.Center(), datagen.Periphery()))
	if err != nil {
		t.Fatal(err)
	}
	full := w.Collection
	frontEnd := func(col *kb.Collection) (*match.Matcher, []metablocking.Edge) {
		bl := blocking.TokenBlocking(col, tokenize.Default()).Purge(0).Filter(0.8)
		g := metablocking.Build(bl, metablocking.ECBS, 1)
		edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: bl.Assignments()})
		return match.NewMatcher(col, match.DefaultOptions()), edges
	}
	for _, workers := range []int{1, 4} {
		for _, budget := range []int{7, 0} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				cfg := Config{Workers: workers}
				// One collection, grown in place: the resolver is seeded
				// over the first two thirds, then reseeded after the
				// rest arrives — before anything runs.
				col := kb.NewCollection()
				for id := 0; id < full.Len()*2/3; id++ {
					d := full.Desc(id)
					col.Add(&kb.Description{URI: d.URI, KB: d.KB, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
				}
				m1, edges1 := frontEnd(col)
				r := NewResolver(m1, edges1, cfg)
				for id := full.Len() * 2 / 3; id < full.Len(); id++ {
					d := full.Desc(id)
					col.Add(&kb.Description{URI: d.URI, KB: d.KB, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
				}
				m2, edges2 := frontEnd(col)
				r.Reseed(m2, edges2)
				got := r.RunBudget(budget)
				want := NewResolver(m2, edges2, cfg).RunBudget(budget)
				sameTrace(t, "reseed-fresh", want, got)
			})
		}
	}
}

// TestReseedKeepsHistory checks the mid-session contract: matches
// found before a reseed stay resolved, executed pairs are not
// re-queued, and the run completes cleanly with the new matcher.
func TestReseedKeepsHistory(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(93, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := NewResolver(m, edges, Config{Workers: workers})
			first := r.RunBudget(40)
			if first.Matches == 0 {
				t.Fatal("first leg found no matches — workload too easy to mean anything")
			}
			merged := make(map[[2]int]bool)
			for _, s := range first.Trace {
				if s.Matched {
					merged[[2]int{s.A, s.B}] = true
				}
			}
			// Reseed with the same matcher and edges (a degenerate
			// ingest) and drain.
			r.Reseed(m, edges)
			rest := r.RunBudget(0)
			for _, s := range rest.Trace {
				if merged[[2]int{s.A, s.B}] {
					t.Fatalf("pair (%d,%d) re-executed after reseed", s.A, s.B)
				}
			}
			for p := range merged {
				if !r.Clusters().Same(p[0], p[1]) {
					t.Fatalf("match (%d,%d) lost by reseed", p[0], p[1])
				}
			}
		})
	}
}

// TestReseedGrowsClusters checks that reseeding onto a grown
// collection extends the cluster state without disturbing existing
// merges, including the KB-exclusivity masks.
func TestReseedGrowsClusters(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(94, 100, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	r := NewResolver(m, edges, Config{})
	res := r.RunBudget(0)
	if res.Matches == 0 {
		t.Fatal("no matches")
	}
	col := m.Collection()
	before := col.Len()
	// Grow the collection and reseed with an empty edge delta.
	col.Add(&kb.Description{URI: "http://x/new1", KB: "extraKB",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "entirely fresh tokens"}}})
	col.Add(&kb.Description{URI: "http://x/new2", KB: "extraKB",
		Attrs: []kb.Attribute{{Predicate: "p", Value: "other new tokens"}}})
	m2 := match.NewMatcher(col, match.DefaultOptions())
	r.Reseed(m2, []metablocking.Edge{})
	if got := r.Clusters().UF().Len(); got != col.Len() {
		t.Fatalf("clusters cover %d ids, want %d", got, col.Len())
	}
	for id := before; id < col.Len(); id++ {
		if r.Clusters().Size(id) != 1 {
			t.Fatalf("new id %d not a singleton", id)
		}
	}
}
