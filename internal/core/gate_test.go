package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// ungated is the reference the gate is checked against: the progressive
// loop with no gate at all, as the package documents it. It queues every
// retained pair and every pair it discovers, decides every popped pair
// not already resolved whatever its value similarity, and lets a boost
// re-open every failed pair. It builds its own queue over the resolver's
// states, and shares only their store, the priority rule and the matcher.
type ungated struct{ r *Resolver }

// newUngated builds the reference over edges and replays steps' merges,
// as Retract does, through the reference's own update phase.
func newUngated(m *match.Matcher, edges []metablocking.Edge, cfg Config, steps []Step) ungated {
	r := NewResolver(m, edges, cfg)
	for i := range r.states.slab {
		r.states.slab[i].done = false
	}
	r.schedule()
	u := ungated{r}
	for _, s := range steps {
		if !s.Matched {
			continue
		}
		p := blocking.MakePair(s.A, s.B)
		_, st := r.states.find(p)
		if st == nil {
			_, st = r.states.add(pairState{pair: p, discovered: s.Discovered})
		}
		st.done = true
		if r.cl.Merge(p.A, p.B) {
			u.propagate(p.A, p.B)
		}
	}
	return u
}

func (u ungated) propagate(a, b int) {
	r := u.r
	col := r.matcher.Collection()
	for _, x := range r.matcher.Neighbors(a) {
		for _, y := range r.matcher.Neighbors(b) {
			p := blocking.MakePair(x, y)
			if x == y || col.NumLiveKBs() > 1 && !col.CrossKB(x, y) {
				continue
			}
			rank, st := r.states.find(p)
			if st == nil {
				if r.cfg.DisableDiscovery {
					continue
				}
				rank, st = r.states.add(pairState{pair: p, discovered: true})
			}
			if st.done {
				if r.cl.Same(p.A, p.B) || r.cfg.DisableDiscovery {
					continue
				}
				st.done, st.recheck = false, true
			}
			st.boost += neighborBoost
			r.queue.Push(entry{rank: rank, prio: r.priority(p, st)})
		}
	}
}

// run decides popped pairs until budget of them could match (0: until
// the head's priority is below the floor) or the queue is empty, and
// returns every decision, the ones that could never match included.
func (u ungated) run(budget int) []Step {
	r := u.r
	m := r.matcher
	floor := math.Inf(-1)
	if budget == 0 {
		floor = r.floor
	}
	var trace []Step
	for live := 0; budget == 0 || live < budget; {
		e, ok := r.queue.Peek()
		if !ok {
			break
		}
		st := r.states.at(e.rank)
		if st.done {
			r.queue.Pop()
			continue
		}
		if e.prio < floor {
			break
		}
		p := st.pair
		if cur := r.priority(p, st); cur < e.prio-1e-9 {
			r.queue.Pop()
			r.queue.Push(entry{rank: e.rank, prio: cur})
			continue
		}
		r.queue.Pop()
		st.done = true
		if r.cl.Same(p.A, p.B) {
			continue
		}
		v := m.ValueSim(p.A, p.B)
		score, matched := m.DecideValue(p.A, p.B, v, r.cl)
		s := Step{A: p.A, B: p.B, Score: score, Matched: matched, Discovered: st.discovered, Recheck: st.recheck}
		if v >= m.Options().MinValueSim {
			live++
		}
		if matched {
			s.Gain = r.cfg.Benefit.Gain(p.A, p.B, r.cl, m)
			s.Merged = r.cl.Merge(p.A, p.B)
			if s.Merged {
				u.propagate(p.A, p.B)
			}
		}
		trace = append(trace, s)
	}
	return trace
}

// TestGateMatchesUngatedLoop holds the gate to exactness. On a linked
// center–periphery world and on LOD clouds, for every benefit model,
// with discovery on and off, at budgets 1, 7 and 0 and at widths 1, 2,
// 4 and 8, and again after a Retract over the first run's merges, the
// gated run's trace is the ungated loop's with the steps whose value
// similarity is below MinValueSim taken out: its matched steps, score
// bits and flags included, and its clusters are the ungated loop's, and
// every step taken out failed. The reference reads the documented rule
// itself, not CanMatch, so a gate that keeps out more or less than that
// rule fails here.
func TestGateMatchesUngatedLoop(t *testing.T) {
	type world struct {
		name  string
		m     *match.Matcher
		edges []metablocking.Edge
	}
	m, edges := hardWorld(t, 99, 130)
	worlds := []world{{"hard", m, edges}}
	for seed := int64(1); seed <= 2; seed++ {
		w, err := datagen.Generate(datagen.LODCloud(seed, 200))
		if err != nil {
			t.Fatal(err)
		}
		m, edges := pipeline(t, w)
		worlds = append(worlds, world{fmt.Sprintf("lod%d", seed), m, edges})
	}
	dropped := 0
	// expect runs the reference and returns its trace with the steps
	// below the gate taken out, as the Result the gated run must equal.
	expect := func(label string, ref ungated, budget int) *Result {
		t.Helper()
		want := &Result{}
		for _, s := range ref.run(budget) {
			if ref.r.matcher.ValueSim(s.A, s.B) < ref.r.matcher.Options().MinValueSim {
				if s.Matched {
					t.Fatalf("%s: the ungated loop matched %+v below the gate", label, s)
				}
				dropped++
				continue
			}
			want.Trace = append(want.Trace, s)
			want.Comparisons++
			if s.Matched {
				want.Matches++
			}
			if s.Discovered {
				want.Discovered++
			}
			if s.Recheck {
				want.Rechecks++
			}
			want.TotalGain += s.Gain
		}
		return want
	}
	sameClusters := func(label string, got *Resolver, ref ungated) {
		t.Helper()
		for a := 0; a < got.matcher.Collection().Len(); a++ {
			if got.cl.UF().Find(a) != ref.r.cl.UF().Find(a) {
				t.Fatalf("%s: description %d is in another cluster than the ungated loop put it in", label, a)
			}
		}
	}
	for _, wd := range worlds {
		for _, model := range Models() {
			for _, noDisc := range []bool{false, true} {
				for _, budget := range []int{1, 7, 0} {
					cfg := Config{Benefit: model, DisableDiscovery: noDisc}
					label := wd.name + "/" + sprintfCase(model.Name(), noDisc, budget, 1)
					ref := newUngated(wd.m, wd.edges, cfg, nil)
					want := expect(label, ref, budget)
					var first *Result
					for _, workers := range []int{1, 2, 4, 8} {
						cfg.Workers = workers
						gated := NewResolver(wd.m, wd.edges, cfg)
						got := gated.RunBudget(budget)
						label := wd.name + "/" + sprintfCase(model.Name(), noDisc, budget, workers)
						sameTrace(t, label, want, got)
						sameClusters(label, gated, ref)
						if first == nil {
							first = got
						}
					}
					if budget != 0 {
						continue
					}
					// Across a Retract with merges: both sides rebuild from
					// the drain's trace and drain again.
					if first.Matches == 0 {
						t.Fatalf("%s: the drain matched nothing; a Retract would replay no merge", label)
					}
					ref = newUngated(wd.m, wd.edges, cfg, first.Trace)
					want = expect(label+"/retract", ref, 0)
					gated := NewResolver(wd.m, nil, cfg)
					gated.Retract(wd.m, wd.edges, first.Trace)
					sameTrace(t, label+"/retract", want, gated.RunBudget(0))
					sameClusters(label+"/retract", gated, ref)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("the ungated loop decided no pair below the gate; the worlds do not exercise it")
	}
}
