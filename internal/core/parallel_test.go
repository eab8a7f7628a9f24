package core

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// hardWorld builds the center+periphery workload with links: the one
// where discovery and rechecks actually fire, so trace equality covers
// every Step field, not just the easy ones.
func hardWorld(t *testing.T, seed int64, n int) (*match.Matcher, []metablocking.Edge) {
	t.Helper()
	cfg := datagen.Config{
		Seed:        seed,
		NumEntities: n,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	}
	w, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline(t, w)
}

func sameTrace(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	if len(seq.Trace) != len(par.Trace) {
		t.Fatalf("%s: trace length %d != sequential %d", label, len(par.Trace), len(seq.Trace))
	}
	for i := range seq.Trace {
		if seq.Trace[i] != par.Trace[i] {
			t.Fatalf("%s: step %d differs:\n  sequential %+v\n  parallel   %+v",
				label, i, seq.Trace[i], par.Trace[i])
		}
	}
	if seq.Comparisons != par.Comparisons || seq.Matches != par.Matches ||
		seq.Discovered != par.Discovered || seq.Rechecks != par.Rechecks ||
		seq.TotalGain != par.TotalGain {
		t.Fatalf("%s: summaries differ:\n  sequential %+v\n  parallel   %+v", label, seq, par)
	}
}

// TestParallelTraceBitIdentical is the differential suite of the
// scoring width: for every benefit model, discovery setting, and
// budget, the trace of a resolver whose states index scored on n
// goroutines must equal the sequential resolver's step for step in
// every field, for every worker count, and a draining run must stop at
// the same step and leave the same queue behind. CI runs it under
// -race, which also exercises the scoring workers' hand-off to the
// serial loop.
func TestParallelTraceBitIdentical(t *testing.T) {
	m, edges := hardWorld(t, 99, 130)
	sawDiscovered, sawRecheck, sawStop := false, false, false
	for _, model := range Models() {
		for _, noDisc := range []bool{false, true} {
			for _, budget := range []int{1, 7, 0} {
				base := Config{Benefit: model, DisableDiscovery: noDisc}
				sr := NewResolver(m, edges, base)
				seq := sr.RunBudget(budget)
				for _, s := range seq.Trace {
					sawDiscovered = sawDiscovered || s.Discovered
					sawRecheck = sawRecheck || s.Recheck
				}
				sawStop = sawStop || budget == 0 && executable(sr) > 0
				for _, workers := range []int{1, 2, 4, 8} {
					cfg := base
					cfg.Workers = workers
					pr := NewResolver(m, edges, cfg)
					par := pr.RunBudget(budget)
					label := sprintfCase(model.Name(), noDisc, budget, workers)
					sameTrace(t, label, seq, par)
					if pr.Pending() != sr.Pending() {
						t.Fatalf("%s: %d pending after the run, sequential %d", label, pr.Pending(), sr.Pending())
					}
				}
			}
		}
	}
	// The matrix must have exercised the hard step kinds, or the
	// equality above proves less than it claims.
	if !sawDiscovered {
		t.Error("no sequential trace contained a discovered comparison")
	}
	if !sawRecheck {
		t.Error("no sequential trace contained a recheck")
	}
	if !sawStop {
		t.Error("no draining run stopped before the queue was empty")
	}
}

func sprintfCase(model string, noDisc bool, budget, workers int) string {
	disc := "discovery"
	if noDisc {
		disc = "no-discovery"
	}
	return model + "/" + disc + "/budget=" + itoa(budget) + "/workers=" + itoa(workers)
}

func itoa(n int) string {
	if n == 0 {
		return "inf"
	}
	return strconv.Itoa(n)
}

// TestParallelResumeLegs drives a resolver with the scoring width set
// through uneven budget legs and a draining leg, and requires the
// concatenated trace to equal one sequential run with the summed
// budget.
func TestParallelResumeLegs(t *testing.T) {
	m, edges := hardWorld(t, 100, 120)
	seq := NewResolver(m, edges, Config{}).RunBudget(0)

	r := NewResolver(m, edges, Config{Workers: 4})
	var combined []Step
	for _, leg := range []int{1, 7, 13, 40} {
		combined = append(combined, r.RunBudget(leg).Trace...)
	}
	combined = append(combined, r.RunBudget(0).Trace...)
	if len(combined) != len(seq.Trace) {
		t.Fatalf("leg traces concatenate to %d steps, sequential has %d", len(combined), len(seq.Trace))
	}
	for i := range combined {
		if combined[i] != seq.Trace[i] {
			t.Fatalf("step %d differs across legs: %+v vs %+v", i, combined[i], seq.Trace[i])
		}
	}
}

// executable counts pairs that could be compared right now: tracked,
// not done, not already resolved transitively. Pending is documented
// as an upper bound on this.
func executable(r *Resolver) int {
	n := 0
	for st := range r.states.all() {
		if p := st.pair; !st.done && !r.cl.Same(p.A, p.B) {
			n++
		}
	}
	return n
}

// aboveFloor counts the executable pairs whose current priority is at
// or above the stop floor. Under a model whose priorities only fall
// between boosts, a draining run leaves none: it stops only once the
// head, and so every queued entry, is below the floor.
func aboveFloor(r *Resolver) int {
	n := 0
	for st := range r.states.all() {
		if p := st.pair; !st.done && !r.cl.Same(p.A, p.B) && r.priority(p, st) >= r.floor {
			n++
		}
	}
	return n
}

// TestPendingNeverUndercounts checks the documented upper-bound
// property of Pending as the heap accumulates stale entries (boost
// reinsertion and lazy revalidation both duplicate entries): at every
// checkpoint Pending must be at least the number of executable
// comparisons, and a drained resolver must leave none executable.
func TestPendingNeverUndercounts(t *testing.T) {
	for _, noDisc := range []bool{false, true} {
		for _, seed := range []int64{7, 8, 9} {
			m, edges := hardWorld(t, seed, 90)
			r := NewResolver(m, edges, Config{DisableDiscovery: noDisc})
			for {
				if p, e := r.Pending(), executable(r); p < e {
					t.Fatalf("seed=%d noDisc=%v: Pending=%d undercounts %d executable", seed, noDisc, p, e)
				}
				if res := r.RunBudget(25); res.Comparisons == 0 {
					break
				}
			}
			if e := executable(r); e != 0 {
				t.Fatalf("seed=%d noDisc=%v: drained resolver left %d executable pairs", seed, noDisc, e)
			}
		}
	}
}

// waveLegs drives one resolver through the streaming life cycle a
// session puts it through: a budgeted leg over two thirds of a linked
// world, a Reseed onto the grown matcher and edges and a budgeted leg,
// then a Retract after evicting every fifth description, with the
// surviving history, and a draining leg. It returns each leg's result.
// The world is rebuilt per call, so every worker count sees the same
// inputs.
func waveLegs(t *testing.T, workers int) []*Result {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{
		Seed:        301,
		NumEntities: 140,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := w.Collection
	col := kb.NewCollection()
	add := func(from, to int) {
		for id := from; id < to; id++ {
			d := full.Desc(id)
			col.Add(&kb.Description{URI: d.URI, KB: d.KB, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
		}
	}
	frontEnd := func() (*match.Matcher, []metablocking.Edge) {
		bl := blocking.TokenBlocking(col, tokenize.Default()).Purge(0).Filter(0.8)
		g := metablocking.Build(bl, metablocking.ECBS, 1)
		edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: bl.Assignments()})
		return match.NewMatcher(col, match.DefaultOptions()), edges
	}

	add(0, full.Len()*2/3)
	m, edges := frontEnd()
	r := NewResolver(m, edges, Config{Workers: workers})
	legs := []*Result{r.RunBudget(40)}

	add(full.Len()*2/3, full.Len())
	m, edges = frontEnd()
	r.Reseed(m, edges)
	legs = append(legs, r.RunBudget(60))

	for id := 0; id < col.Len(); id += 5 {
		col.Evict(id)
	}
	var history []Step
	for _, leg := range legs {
		for _, s := range leg.Trace {
			if col.Alive(s.A) && col.Alive(s.B) {
				history = append(history, s)
			}
		}
	}
	m, edges = frontEnd()
	r.Retract(m, edges, history)
	return append(legs, r.RunBudget(0))
}

// TestParallelTraceAcrossWaves extends the differential suite past a
// fresh resolver: a Reseed rescores every pair under a new matcher and
// re-opens failed pairs, and a Retract rebuilds the queue from a
// replay whose discoveries are scored inline. Every leg of every
// worker count must equal the sequential trace in every Step field.
func TestParallelTraceAcrossWaves(t *testing.T) {
	seq := waveLegs(t, 0)
	recheck := false
	for _, s := range seq[1].Trace {
		recheck = recheck || s.Recheck
	}
	if !recheck {
		t.Error("the post-Reseed leg re-examined no failed pair; the world is too easy")
	}
	if len(seq[2].Trace) == 0 {
		t.Fatal("the post-Retract leg executed nothing")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		par := waveLegs(t, workers)
		for i, name := range []string{"first", "reseed", "retract"} {
			sameTrace(t, "workers="+strconv.Itoa(workers)+"/"+name, seq[i], par[i])
		}
	}
}

// TestIndexScores pins what building the schedule computes, at widths
// 1, 2, 4 and 8; CI runs it under -race, which checks the scoring
// workers' hand-off. After NewResolver, and after a Retract over the
// drain's merges, every tracked state holds exactly ValueSim's float,
// every state that can never match is done and counted in Gated, and no
// queued entry names one. Boosting a dead pair queues nothing: a
// tracked one stays as it is, and an untracked one is tracked, done and
// gated.
func TestIndexScores(t *testing.T) {
	m, edges := hardWorld(t, 102, 120)
	check := func(label string, r *Resolver) {
		t.Helper()
		dead := 0
		for st := range r.states.all() {
			p := st.pair
			if want := m.ValueSim(p.A, p.B); math.Float64bits(st.vsim) != math.Float64bits(want) {
				t.Fatalf("%s: pair %v holds value similarity %v, want %v", label, p, st.vsim, want)
			}
			if !m.CanMatch(st.vsim) {
				if !st.done {
					t.Fatalf("%s: dead pair %v is open", label, p)
				}
				dead++
			}
		}
		// No match in the history is dead under the same matcher, so
		// every dead state was gated.
		if dead == 0 || dead != r.Gated() {
			t.Fatalf("%s: %d dead states, Gated %d", label, dead, r.Gated())
		}
		for _, e := range r.queue.items {
			if st := r.states.at(e.rank); !m.CanMatch(st.vsim) {
				t.Fatalf("%s: dead pair %v is queued", label, st.pair)
			}
		}
	}
	col := m.Collection()
	for _, workers := range []int{1, 2, 4, 8} {
		label := "workers=" + strconv.Itoa(workers)
		r := NewResolver(m, edges, Config{Workers: workers})
		check(label+"/new", r)
		res := r.RunBudget(0)
		if res.Matches == 0 {
			t.Fatal("the drain matched nothing")
		}
		r.Retract(m, edges, res.Trace)
		check(label+"/retract", r)

		var tracked, fresh blocking.Pair
		for st := range r.states.all() {
			if p := st.pair; !m.CanMatch(st.vsim) && col.CrossKB(p.A, p.B) {
				tracked = p
				break
			}
		}
		for a := 0; a < col.Len() && fresh == (blocking.Pair{}); a++ {
			for b := a + 1; b < col.Len(); b++ {
				p := blocking.MakePair(a, b)
				if _, st := r.states.find(p); st == nil && col.CrossKB(a, b) && !m.CanMatch(m.ValueSim(a, b)) {
					fresh = p
					break
				}
			}
		}
		if tracked == (blocking.Pair{}) || fresh == (blocking.Pair{}) {
			t.Fatal("no tracked or untracked dead cross-KB pair to boost")
		}
		_, st := r.states.find(tracked)
		before, queued, gated := *st, r.Pending(), r.Gated()
		r.boost(tracked)
		r.boost(fresh)
		if *st != before {
			t.Fatalf("%s: boosting dead pair %v changed its state from %+v to %+v", label, tracked, before, *st)
		}
		_, fst := r.states.find(fresh)
		if fst == nil || !fst.done || !fst.discovered || r.Gated() != gated+1 {
			t.Fatalf("%s: discovered dead pair %v: state %+v, Gated %d → %d", label, fresh, fst, gated, r.Gated())
		}
		if r.Pending() != queued {
			t.Fatalf("%s: boosting two dead pairs queued %d entries", label, r.Pending()-queued)
		}
	}
}
