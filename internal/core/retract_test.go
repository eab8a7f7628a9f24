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

// retractWorld builds the linked two-KB workload, tombstones a spread
// of ids, and returns the rebuilt matcher and re-pruned edges over the
// survivors plus the pre-eviction resolver inputs.
func retractWorld(t *testing.T, seed int64, n, evictEvery int) (pre, post *match.Matcher, preEdges, postEdges []metablocking.Edge) {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{
		Seed:        seed,
		NumEntities: n,
		KBs: []datagen.KBConfig{
			{Name: "alpha", Coverage: 1, Profile: datagen.Center()},
			{Name: "betaKB", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := w.Collection
	frontEdges := func() []metablocking.Edge {
		bl := blocking.TokenBlocking(col, tokenize.Default()).Purge(0).Filter(0.8)
		g := metablocking.Build(bl, metablocking.ECBS, 1)
		return g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: bl.Assignments()})
	}
	pre = match.NewMatcher(col, match.DefaultOptions())
	preEdges = frontEdges()
	for id := 0; id < col.Len(); id += evictEvery {
		col.Evict(id)
	}
	post = match.NewMatcher(col, match.DefaultOptions())
	postEdges = frontEdges()
	return pre, post, preEdges, postEdges
}

// TestRetractFreshEqualsNewResolver pins the bit-identity half of the
// contract: retracting a resolver that has executed nothing yields a
// resolver indistinguishable from NewResolver over the surviving
// corpus — the full progressive trace agrees step for step, for any
// worker count and any budget.
func TestRetractFreshEqualsNewResolver(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, budget := range []int{7, 0} {
			t.Run(fmt.Sprintf("workers=%d/budget=%d", workers, budget), func(t *testing.T) {
				_, post, preEdges, postEdges := retractWorld(t, 551, 130, 7)
				cfg := Config{Workers: workers}

				r := NewResolver(post, preEdges, cfg) // seeded pre-eviction
				r.Retract(post, postEdges, nil)
				got := r.RunBudget(budget)

				want := NewResolver(post, postEdges, cfg).RunBudget(budget)
				if len(got.Trace) != len(want.Trace) {
					t.Fatalf("%d steps, want %d", len(got.Trace), len(want.Trace))
				}
				for i := range want.Trace {
					if got.Trace[i] != want.Trace[i] {
						t.Fatalf("step %d = %+v, want %+v", i, got.Trace[i], want.Trace[i])
					}
				}
			})
		}
	}
}

// TestRetractAfterRun pins the monotone semantics of mid-session
// eviction: after spending budget, retracting with the surviving
// history keeps surviving matches resolved, never touches a dead id
// again, never re-spends a surviving match, re-spends a surviving
// failed pair only as a fresh comparison — retained by the new pruning
// or rediscovered by a replayed merge, never flagged as a recheck —
// and keeps Pending an upper bound on the executable comparisons.
func TestRetractAfterRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pre, post, preEdges, postEdges := retractWorld(t, 552, 140, 6)
			col := post.Collection()
			cfg := Config{Workers: workers}

			r := NewResolver(pre, preEdges, cfg)
			mid := r.RunBudget(60)

			// The surviving history: steps whose endpoints are both alive.
			var steps []Step
			for _, s := range mid.Trace {
				if col.Alive(s.A) && col.Alive(s.B) {
					steps = append(steps, s)
				}
			}
			if len(steps) == len(mid.Trace) {
				t.Fatal("eviction removed no executed steps — workload too easy")
			}
			r.Retract(post, postEdges, steps)

			if p, e := r.Pending(), executable(r); p < e {
				t.Fatalf("Pending=%d undercounts %d executable after retract", p, e)
			}
			// Surviving matches stay resolved.
			for _, s := range steps {
				if s.Matched && !r.Clusters().Same(s.A, s.B) {
					t.Fatalf("surviving match (%d,%d) lost by retract", s.A, s.B)
				}
			}

			rest := r.RunBudget(0)
			matched := make(map[blocking.Pair]bool, len(steps))
			failed := make(map[blocking.Pair]bool, len(steps))
			for _, s := range steps {
				if s.Matched {
					matched[blocking.MakePair(s.A, s.B)] = true
				} else {
					failed[blocking.MakePair(s.A, s.B)] = true
				}
			}
			retained := make(map[blocking.Pair]bool, len(postEdges))
			for _, e := range postEdges {
				retained[blocking.MakePair(e.A, e.B)] = true
			}
			seen := make(map[blocking.Pair]bool)
			respent := 0
			for _, s := range rest.Trace {
				p := blocking.MakePair(s.A, s.B)
				if !col.Alive(s.A) || !col.Alive(s.B) {
					t.Fatalf("post-retract step touches evicted id: %+v", s)
				}
				if matched[p] {
					t.Fatalf("surviving match (%d,%d) re-spent", s.A, s.B)
				}
				if failed[p] && !seen[p] {
					respent++
					if s.Recheck {
						t.Fatalf("failed pair (%d,%d) re-spent as a recheck, want a fresh comparison", s.A, s.B)
					}
					if !retained[p] && !s.Discovered {
						t.Fatalf("failed pair (%d,%d) re-spent though neither retained nor rediscovered", s.A, s.B)
					}
				}
				seen[p] = true
			}
			if respent == 0 {
				t.Fatal("no surviving failed pair was re-spent — the world is too easy")
			}
			if e := aboveFloor(r); e != 0 {
				t.Fatalf("stopped resolver left %d executable pairs at or above the floor", e)
			}
		})
	}
}

// TestRetractIgnoresFailedSteps is the rule as a property: only
// matched steps are evidence, so Retract over the full trace and
// Retract over its matched steps alone build resolvers whose drained
// traces agree in every Step field, on random evictions and budgets.
func TestRetractIgnoresFailedSteps(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			pre, post, preEdges, postEdges := retractWorld(t, 560+trial, 120, 5+int(trial))
			col := post.Collection()
			cfg := Config{}
			mid := NewResolver(pre, preEdges, cfg).RunBudget(30 + 40*int(trial))
			var full, merges []Step
			for _, s := range mid.Trace {
				if !col.Alive(s.A) || !col.Alive(s.B) {
					continue
				}
				full = append(full, s)
				if s.Matched {
					merges = append(merges, s)
				}
			}
			if len(merges) == 0 || len(merges) == len(full) {
				t.Fatalf("%d surviving steps, %d matched: the history must mix both", len(full), len(merges))
			}
			a := NewResolver(post, nil, cfg)
			a.Retract(post, postEdges, full)
			b := NewResolver(post, nil, cfg)
			b.Retract(post, postEdges, merges)
			if a.Pending() != b.Pending() {
				t.Fatalf("Pending %d from the full trace, %d from the merges", a.Pending(), b.Pending())
			}
			sameTrace(t, "full-vs-merges", a.RunBudget(0), b.RunBudget(0))
		})
	}
}

// TestDirtyMergesStayInTheirKB drives the one path on which the update
// phase meets a same-KB pair in clean–clean ER: a single KB is
// resolved as dirty ER, a second KB arrives, and Retract replays the
// same-KB merges through propagate. The two Nolan duplicates merge in
// the dirty run, which discovers their neighbors (Inception, Memento);
// those can never match on value similarity, so the gate keeps them out
// of the queue and the test reads them from the pair states, not from
// the trace.
// Once KB b is live the collection is clean–clean, so the replayed merge
// must neither re-discover that same-KB pair nor boost one: every
// decided step and every tracked discovered pair is cross-KB.
func TestDirtyMergesStayInTheirKB(t *testing.T) {
	c := kb.NewCollection()
	add := func(kbn, uri, name, value string, links ...string) {
		c.Add(&kb.Description{URI: uri, KB: kbn, Links: links,
			Attrs: []kb.Attribute{{Predicate: "name", Value: name}, {Predicate: "note", Value: value}}})
	}
	add("a", "nolan", "Christopher Nolan", "director born London 1970")
	add("a", "nolan2", "Christopher Nolan", "director born London 1970")
	add("a", "inception", "Inception", "dream heist thriller", "nolan")
	add("a", "memento", "Memento", "amnesia revenge noir", "nolan2")
	prune := func() []metablocking.Edge {
		col := blocking.TokenBlocking(c, tokenize.Default())
		g := metablocking.Build(col, metablocking.ECBS, 1)
		return g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	}

	r := NewResolver(match.NewMatcher(c, match.DefaultOptions()), prune(), Config{})
	dirty := r.RunBudget(0)
	merged, discovered := false, false
	for _, s := range dirty.Trace {
		merged = merged || s.Merged
	}
	for st := range r.states.all() {
		discovered = discovered || (st.discovered && st.done && !r.cl.Same(st.pair.A, st.pair.B) && !r.matcher.CanMatch(st.vsim))
	}
	if !merged || !discovered {
		t.Fatalf("the dirty run must merge the duplicates and gate a discovered pair: %+v", dirty.Trace)
	}

	add("b", "cn", "Christopher Nolan", "director London")
	add("b", "inc", "Inception", "heist dream thriller", "cn")
	r.Retract(match.NewMatcher(c, match.DefaultOptions()), prune(), dirty.Trace)
	for st := range r.states.all() {
		if st.discovered && !c.CrossKB(st.pair.A, st.pair.B) {
			t.Errorf("replay discovered same-KB pair %v", st.pair)
		}
	}
	clean := r.RunBudget(0)
	if clean.Matches == 0 {
		t.Fatal("the clean–clean leg matched nothing")
	}
	for _, s := range clean.Trace {
		if !c.CrossKB(s.A, s.B) {
			t.Errorf("clean–clean leg decided same-KB pair %+v", s)
		}
	}
}
