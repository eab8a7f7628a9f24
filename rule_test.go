package minoaner

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/parmeta"
	"repro/internal/pipeline"
)

// lodStream is a small LOD world as an ingest stream: ids interleaved
// round-robin across KBs, so every batch spans them all.
func lodStream(t testing.TB, seed int64, n int) []Description {
	t.Helper()
	w, err := datagen.Generate(datagen.LODCloud(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	col := w.Collection
	perKB := make([][]int, col.NumKBs())
	for id := 0; id < col.Len(); id++ {
		perKB[col.KBOf(id)] = append(perKB[col.KBOf(id)], id)
	}
	var out []Description
	for i := 0; len(out) < col.Len(); i++ {
		for _, ids := range perKB {
			if i < len(ids) {
				d := col.Desc(ids[i])
				out = append(out, Description{KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
			}
		}
	}
	return out
}

// history is a test's own record of every step a session executed,
// kept through the pipeline's leg hook, in the session's current id
// space: after a compaction the record is remapped the way
// Collection.Compact renumbers (live ids, densely, in order).
type history struct {
	col         *kb.Collection // the id space steps are in
	steps       []core.Step
	executed    int // every step ever recorded, dropped ones included
	compactions int // times the session moved to a new collection
}

func (h *history) remap(now *kb.Collection) {
	if h.col == now {
		return
	}
	h.compactions++
	oldToNew := make([]int, h.col.Len())
	next := 0
	for id := range oldToNew {
		oldToNew[id] = -1
		if h.col.Alive(id) {
			oldToNew[id] = next
			next++
		}
	}
	kept := h.steps[:0]
	for _, st := range h.steps {
		if a, b := oldToNew[st.A], oldToNew[st.B]; a >= 0 && b >= 0 {
			st.A, st.B = a, b
			kept = append(kept, st)
		}
	}
	h.steps, h.col = kept, now
}

// live returns the recorded steps over live descriptions.
func (h *history) live() []core.Step {
	var out []core.Step
	for _, st := range h.steps {
		if h.col.Alive(st.A) && h.col.Alive(st.B) {
			out = append(out, st)
		}
	}
	return out
}

// retractFresh is the right-hand side of the rebuild rule: a fresh
// front end over the session's live collection, a fresh matcher, and
// NewResolver (configured as Session.pass configures it) followed by
// Retract over the steps.
func retractFresh(t *testing.T, s *Session, steps []core.Step) *core.Resolver {
	t.Helper()
	p := s.p
	fe, err := pipeline.Run(pipeline.Select(p.cfg.Workers, false), s.col, p.pipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(s.col, p.cfg.Match)
	r := core.NewResolver(m, fe.Edges, core.Config{
		Benefit:          p.cfg.Benefit,
		DisableDiscovery: p.cfg.DisableDiscovery,
		Workers:          parmeta.Workers(p.cfg.Workers),
	})
	r.Retract(m, fe.Edges, steps)
	return r
}

// clusterKey renders a partition of ids canonically, as sorted refs.
func clusterKey(s *Session, members [][]int) string {
	var rows []string
	for _, ids := range members {
		var refs []string
		for _, id := range ids {
			r := s.ref(id)
			refs = append(refs, r.KB+"/"+r.URI)
		}
		slices.Sort(refs)
		rows = append(rows, strings.Join(refs, " "))
	}
	slices.Sort(rows)
	return strings.Join(rows, "\n")
}

// ruleOp is one operation of a random session life: ingest the next n
// stream descriptions, evict n random live ones, or Resume(n).
type ruleOp struct {
	kind byte // 'i', 'e' or 'r'
	n    int
}

// randomLife draws a sequence of waves, each followed by zero to two
// Resume legs with budgets from {0, 1, 40}. With evictions false every
// wave ingests; otherwise half of them, at random, evict.
func randomLife(rng *rand.Rand, waves int, evictions bool) []ruleOp {
	var ops []ruleOp
	for range waves {
		if evictions && rng.Intn(2) == 0 {
			ops = append(ops, ruleOp{'e', 1 + rng.Intn(40)})
		} else {
			ops = append(ops, ruleOp{'i', 1 + rng.Intn(30)})
		}
		for range rng.Intn(3) {
			ops = append(ops, ruleOp{'r', []int{0, 1, 40}[rng.Intn(3)]})
		}
	}
	return ops
}

// playLife runs ops on a fresh pipeline over a half-loaded stream
// (Start, then one Resume(40) leg) and returns the session with the
// test's record of every step it executed.
func playLife(t *testing.T, cfg Config, stream []Description, ops []ruleOp, seed int64) (*Session, *history) {
	t.Helper()
	p := New(cfg)
	next := len(stream) / 2
	if err := p.Add(stream[:next]); err != nil {
		t.Fatal(err)
	}
	h := &history{}
	p.testLeg = func(_ *Session, trace []core.Step) {
		h.steps = append(h.steps, trace...)
		h.executed += len(trace)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	h.col = s.col
	if _, err := s.Resume(40); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, op := range ops {
		switch op.kind {
		case 'i':
			hi := min(next+op.n, len(stream))
			err = s.Ingest(stream[next:hi])
			next = hi
		case 'e':
			var live []Ref
			for id := 0; id < s.col.Len(); id++ {
				if s.col.Alive(id) {
					live = append(live, s.ref(id))
				}
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			err = s.Evict(live[:min(op.n, len(live)-1)])
		case 'r':
			_, err = s.Resume(op.n)
		}
		if err != nil {
			t.Fatalf("op %c%d: %v", op.kind, op.n, err)
		}
		if n := s.col.Tombstones(); n != 0 {
			t.Fatalf("op %c%d: the session's collection holds %d tombstones", op.kind, op.n, n)
		}
		h.remap(s.col)
	}
	return s, h
}

// TestRebuildRuleEquation states the session's one rebuild rule as an
// equation. After any wave of a random ingest/evict/Resume life, the
// session's draining Resume(0) leg equals, step for step in every
// field, the drained run of a fresh front end and matcher over the live
// collection with NewResolver + Retract over the test's own record of
// every executed step (failed ones included, filtered to live ids);
// and the session's clusters equal that resolver's. The session keeps
// only its merges and never sees that record, so the equation also
// checks that the merges are all the history a wave needs. After every
// op the session's collection holds no tombstone. The equation holds
// for lives that only ingest, where the session never compacts, and
// for lives that also evict, where every eviction wave compacts, under
// budgeted legs between the waves.
func TestRebuildRuleEquation(t *testing.T) {
	stream := lodStream(t, 11, 100)
	compacted := 0
	for _, evictions := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("compaction=%v/seed=%d", evictions, seed), func(t *testing.T) {
				cfg := Defaults()
				cfg.Workers = 1 + int(seed%2)
				ops := randomLife(rand.New(rand.NewSource(seed)), 8, evictions)
				checked := 0
				for i, op := range ops {
					if op.kind == 'r' {
						continue
					}
					s, h := playLife(t, cfg, stream, ops[:i+1], seed)
					want := retractFresh(t, s, h.live())
					before := len(h.steps)
					out, err := s.Resume(0)
					if err != nil {
						t.Fatal(err)
					}
					got := h.steps[before:]
					wantRes := want.RunBudget(0)
					if len(got) != len(wantRes.Trace) {
						t.Fatalf("after op %d: Resume(0) ran %d steps, the fresh Retract %d", i, len(got), len(wantRes.Trace))
					}
					for j := range got {
						if got[j] != wantRes.Trace[j] {
							t.Fatalf("after op %d: step %d = %+v, fresh Retract %+v", i, j, got[j], wantRes.Trace[j])
						}
					}
					_, members := s.buildResult()
					if g, w := clusterKey(s, members), clusterKey(s, want.Clusters().Resolved()); g != w {
						t.Fatalf("after op %d: clusters differ:\n%s\nwant\n%s", i, g, w)
					}
					if out.Stats.Comparisons != h.executed {
						t.Fatalf("after op %d: Stats.Comparisons %d, the session executed %d", i, out.Stats.Comparisons, h.executed)
					}
					checked++
					if !evictions && h.compactions != 0 {
						t.Fatalf("after op %d: an ingest-only life compacted %d times", i, h.compactions)
					}
					compacted += h.compactions
				}
				if checked == 0 {
					t.Fatal("the life made no wave")
				}
			})
		}
	}
	if compacted == 0 {
		t.Fatal("no life compacted — raise the eviction share")
	}
}
