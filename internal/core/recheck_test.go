package core

import (
	"testing"

	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// filmWorld reproduces the moviekb scenario as a fixture: a
// somehow-similar pair that fails on value similarity until its
// neighbors (the directors) resolve.
func filmWorld(t *testing.T) (*match.Matcher, []metablocking.Edge, blocking.Pair) {
	t.Helper()
	c := kb.NewCollection()
	add := func(kbn, uri string, attrs map[string]string, links ...string) {
		d := &kb.Description{URI: uri, KB: kbn, Links: links}
		for _, k := range []string{"label", "name", "title", "year", "style", "genre", "born"} {
			if v, ok := attrs[k]; ok {
				d.Attrs = append(d.Attrs, kb.Attribute{Predicate: k, Value: v})
			}
		}
		c.Add(d)
	}
	add("imdb", "http://i/nm0634240", map[string]string{"name": "Christopher Nolan", "born": "London 1970"})
	add("imdb", "http://i/tt1375666", map[string]string{"title": "Inception", "genre": "dream heist thriller"}, "http://i/nm0634240")
	add("imdb", "http://i/tt0816692", map[string]string{"title": "Yildizlararasi uzay epic", "year": "2014"}, "http://i/nm0634240")
	add("wiki", "http://w/Christopher_Nolan", map[string]string{"label": "Christopher Nolan", "born": "London"})
	add("wiki", "http://w/Inception_film", map[string]string{"label": "Inception", "genre": "heist dream"}, "http://w/Christopher_Nolan")
	add("wiki", "http://w/Interstellar", map[string]string{"label": "Interstellar", "year": "2014", "style": "epic"}, "http://w/Christopher_Nolan")

	col := blocking.TokenBlocking(c, tokenize.Default())
	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	m := match.NewMatcher(c, match.DefaultOptions())
	hi, _ := c.IDOf("imdb", "http://i/tt0816692")
	hw, _ := c.IDOf("wiki", "http://w/Interstellar")
	return m, edges, blocking.MakePair(hi, hw)
}

func TestRecheckRescuesHardPair(t *testing.T) {
	// Pin the execution order with explicit edge weights: the hard pair
	// runs FIRST (before any neighbor evidence exists) and fails; once
	// the director pair resolves, the update phase must re-open it and
	// the re-check must succeed.
	m, _, hard := filmWorld(t)
	c := m.Collection()
	ni, _ := c.IDOf("imdb", "http://i/nm0634240")
	nw, _ := c.IDOf("wiki", "http://w/Christopher_Nolan")
	edges := []metablocking.Edge{
		{A: hard.A, B: hard.B, Weight: 10}, // forced to the front
		{A: ni, B: nw, Weight: 5},
	}
	res := NewResolver(m, edges, Config{}).RunBudget(0)

	if len(res.Trace) < 3 {
		t.Fatalf("trace too short: %+v", res.Trace)
	}
	first := res.Trace[0]
	if blocking.MakePair(first.A, first.B) != hard || first.Matched {
		t.Fatalf("hard pair should fail first: %+v", first)
	}
	var rescued *Step
	for i := range res.Trace {
		s := &res.Trace[i]
		if blocking.MakePair(s.A, s.B) == hard && s.Matched {
			rescued = s
		}
	}
	if rescued == nil {
		t.Fatalf("hard pair never rescued; trace=%+v", res.Trace)
	}
	if !rescued.Recheck {
		t.Errorf("rescue was not a re-check: %+v", rescued)
	}
	if res.Rechecks == 0 {
		t.Error("no re-checks recorded")
	}
}

func TestDisableDiscoveryAlsoDisablesRechecks(t *testing.T) {
	// With discovery off, no re-check steps may appear. (The hard pair
	// can still match on its *first* comparison when the scheduler
	// happens to order the director pair earlier — neighbor evidence in
	// the score itself is not part of discovery.)
	m, edges, _ := filmWorld(t)
	res := NewResolver(m, edges, Config{DisableDiscovery: true}).RunBudget(0)
	for _, s := range res.Trace {
		if s.Recheck {
			t.Fatalf("recheck executed with discovery disabled: %+v", s)
		}
	}
	if res.Rechecks != 0 || res.Discovered != 0 {
		t.Errorf("counters nonzero with discovery disabled: %+v", res)
	}
}

func TestRecheckTerminates(t *testing.T) {
	// Re-checks must not loop: the run drains even though failed pairs
	// keep receiving boosts from adjacent merges.
	m, edges, _ := filmWorld(t)
	res := NewResolver(m, edges, Config{}).RunBudget(0)
	if res.Comparisons > 10*len(edges)+100 {
		t.Errorf("suspiciously many comparisons (%d for %d edges) — recheck loop?",
			res.Comparisons, len(edges))
	}
}
