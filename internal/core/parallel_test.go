package core

import (
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
	if seq.Comparisons != par.Comparisons || seq.Gated != par.Gated || seq.Matches != par.Matches ||
		seq.Discovered != par.Discovered || seq.Rechecks != par.Rechecks ||
		seq.TotalGain != par.TotalGain {
		t.Fatalf("%s: summaries differ:\n  sequential %+v\n  parallel   %+v", label, seq, par)
	}
}

// TestParallelTraceBitIdentical is the differential suite of the
// value-similarity pre-pass: for every benefit model, discovery
// setting, and budget, the trace with the pre-pass width set must
// equal the sequential resolver's step for step in every field, for
// every worker count, and a draining run must stop at the same step
// and leave the same queue behind, though the pre-pass skips what is
// below the floor. CI runs it under -race, which also exercises the
// pre-pass's hand-off to the serial loop.
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

// TestParallelResumeLegs drives a resolver with the pre-pass width set
// through uneven budget legs — scored inline — and a draining leg,
// whose pre-pass finds part of the queue already executed, and
// requires the concatenated trace to equal one sequential run with the
// summed budget.
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
		g := metablocking.Build(bl, metablocking.ECBS)
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
// fresh resolver: a Reseed invalidates every memoized score and
// re-opens failed pairs, and a Retract rebuilds the queue from a
// replay, so the draining leg's pre-pass runs over a queue in no
// particular order. Every leg of every worker count must equal the
// sequential trace in every Step field.
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

// TestPrescore pins what the pre-pass computes and when it runs. A
// budgeted leg scores only what it decides plus what it gates. A direct
// pre-pass leaves every queued pair not yet executed and not below the
// stop floor holding exactly ValueSim's float, and scores none below the
// floor. And a draining run at width 4 runs it: it scores pairs its loop
// neither decides nor gates (those it skips as transitively resolved or
// never reaches), which never happens on the serial loop.
func TestPrescore(t *testing.T) {
	m, edges := hardWorld(t, 102, 120)
	r := NewResolver(m, edges, Config{Workers: 4})
	leg := r.RunBudget(30)
	if n := scored(r); n > leg.Comparisons+leg.Gated || leg.Gated == 0 {
		t.Fatalf("a %d-comparison budgeted leg that gated %d pairs scored %d pairs", leg.Comparisons, leg.Gated, n)
	}
	unscored := make(map[*pairState]bool)
	for st := range r.states.all() {
		unscored[st] = !st.hasVsim
	}
	r.prescore()
	below := 0
	for _, e := range r.queue.items {
		st := r.states.at(e.rank)
		if st.done {
			continue
		}
		if r.priority(st.pair, st) < r.floor {
			below++
			if unscored[st] && st.hasVsim {
				t.Fatalf("pair %v below the floor was scored by the pre-pass", st.pair)
			}
			continue
		}
		if !st.hasVsim || st.vsim != m.ValueSim(st.pair.A, st.pair.B) {
			t.Fatalf("pair %v after the pre-pass: hasVsim=%v vsim=%v, want %v",
				st.pair, st.hasVsim, st.vsim, m.ValueSim(st.pair.A, st.pair.B))
		}
	}
	if below == 0 {
		t.Fatal("no queued pair is below the floor; the skip went unchecked")
	}

	// Three KBs, so matches chain and some queued pairs resolve
	// transitively before they pop.
	w, err := datagen.Generate(datagen.Config{
		Seed:        103,
		NumEntities: 120,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "centerB", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, edges = pipeline(t, w)
	// wasted counts the pairs scored but neither decided nor gated: a
	// gated pair is popped and scored, and its score is below the gate.
	wasted := func(workers int) int {
		r := NewResolver(m, edges, Config{Workers: workers})
		res := r.RunBudget(0)
		decided := make(map[uint64]bool)
		for _, s := range res.Trace {
			decided[pairKey(blocking.MakePair(s.A, s.B))] = true
		}
		n, gated := 0, 0
		for st := range r.states.all() {
			switch {
			case !st.hasVsim || decided[pairKey(st.pair)]:
			case st.done && !m.CanMatch(st.vsim):
				gated++
			default:
				n++
			}
		}
		if gated == 0 || gated > res.Gated {
			t.Fatalf("width %d: %d scored pairs were gated, the run reports %d", workers, gated, res.Gated)
		}
		return n
	}
	if n := wasted(0); n != 0 {
		t.Fatalf("the serial loop scored %d pairs it neither decided nor gated", n)
	}
	if wasted(4) == 0 {
		t.Fatal("a draining run at width 4 scored nothing beyond what it executed; the pre-pass did not run")
	}
}
