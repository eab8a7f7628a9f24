package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/metablocking"
)

// ungatedDrain is the reference loop the gate is checked against: the
// resolver's draining loop with every popped pair that is not resolved
// already decided, whatever its value similarity. It shares the
// resolver's priority, execution and propagation, and differs from next
// only in having no gate.
func ungatedDrain(r *Resolver) []Step {
	var trace []Step
	for {
		e, ok := r.queue.Peek()
		if !ok {
			return trace
		}
		st := r.states.at(e.rank)
		if st.done {
			r.queue.Pop()
			continue
		}
		p := st.pair
		if cur := r.priority(p, st); cur < e.prio-1e-9 {
			r.queue.Pop()
			r.queue.Push(entry{rank: e.rank, prio: cur})
			continue
		} else if cur < r.floor {
			return trace
		}
		r.queue.Pop()
		if r.cl.Same(p.A, p.B) {
			st.done = true
			continue
		}
		trace = append(trace, r.execute(p, st))
	}
}

// TestGateMatchesUngatedLoop holds the gate to exactness. On a linked
// center–periphery world and on LOD clouds, the gated draining run's
// trace is the ungated loop's trace with the steps whose value
// similarity is below MinValueSim taken out, one per gated pop; so its
// matched steps, score bits and flags included, and its clusters are
// the ungated loop's, and the steps taken out all failed. The reference
// reads the documented rule itself, not CanMatch, so a gate that drops
// more or less than that rule fails here.
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
		worlds = append(worlds, world{"lod", m, edges})
	}
	for _, wd := range worlds {
		minV := wd.m.Options().MinValueSim
		gated := NewResolver(wd.m, wd.edges, Config{})
		got := gated.RunBudget(0)
		ref := NewResolver(wd.m, wd.edges, Config{})
		want := &Result{}
		for _, s := range ungatedDrain(ref) {
			if wd.m.ValueSim(s.A, s.B) < minV {
				if s.Matched {
					t.Fatalf("%s: the ungated loop matched %+v below the gate", wd.name, s)
				}
				want.Gated++
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
		sameTrace(t, wd.name, want, got)
		if want.Gated == 0 || got.Matches == 0 {
			t.Fatalf("%s: gated %d, matched %d; the world does not exercise the gate", wd.name, want.Gated, got.Matches)
		}
		n := wd.m.Collection().Len()
		for a := 0; a < n; a++ {
			if gated.cl.UF().Find(a) != ref.cl.UF().Find(a) {
				t.Fatalf("%s: description %d is in another cluster than the ungated loop put it in", wd.name, a)
			}
		}
	}
}
