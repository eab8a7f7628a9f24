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
	"repro/internal/rdf"
)

// hardSessionWorld is the center+periphery workload with links, where
// neighbor-evidence discovery and rechecks actually fire.
func hardSessionWorld(t testing.TB, seed int64, n int) *datagen.World {
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
	return w
}

// streamOf converts a generated world into the ingest-order
// description stream: ids interleaved round-robin across KBs, so every
// batch spans all KBs (the steady-state streaming shape).
func streamOf(w *datagen.World) []Description {
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

// lodStream is a small LOD world as an ingest stream.
func lodStream(t testing.TB, seed int64, n int) []Description {
	t.Helper()
	w, err := datagen.Generate(datagen.LODCloud(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	return streamOf(w)
}

// sameResult checks two results agree: statistics, every match in
// order with its score and flags, and the cluster count.
func sameResult(t testing.TB, label string, want, got *Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ:\n  want %+v\n  got  %+v", label, want.Stats, got.Stats)
	}
	if len(want.Matches) != len(got.Matches) {
		t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got.Matches[i], want.Matches[i])
		}
	}
	if len(want.Clusters) != len(got.Clusters) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got.Clusters), len(want.Clusters))
	}
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

// ruleOp is one operation of a session life (see playLife).
type ruleOp struct {
	kind byte
	n    int
	refs []int // 'x': stream indices
}

// wave reports whether the op mutates the session.
func (op ruleOp) wave() bool { return strings.IndexByte("iaexKE", op.kind) >= 0 }

// randomLife draws a sequence of waves, each followed by zero to two
// Resume legs with budgets from {0, 1, 40}. With evictions false every
// wave ingests; otherwise half of them, at random, evict.
func randomLife(rng *rand.Rand, waves int, evictions bool) []ruleOp {
	var ops []ruleOp
	for range waves {
		if evictions && rng.Intn(2) == 0 {
			ops = append(ops, ruleOp{kind: 'e', n: 1 + rng.Intn(40)})
		} else {
			ops = append(ops, ruleOp{kind: 'i', n: 1 + rng.Intn(30)})
		}
		for range rng.Intn(3) {
			ops = append(ops, ruleOp{kind: 'r', n: []int{0, 1, 40}[rng.Intn(3)]})
		}
	}
	return ops
}

// ruleRow is one session life: a description stream and a list of
// N-Triples documents (docs[i] of KB docKBs[i]), the first pre and
// preDocs of them loaded before Start, and the ops after it.
type ruleRow struct {
	name         string
	workers      int
	seed         int64 // picks the random evictions
	stream       []Description
	docs, docKBs []string
	pre, preDocs int
	ops          []ruleOp
}

func (row ruleRow) config() Config {
	cfg := Defaults()
	cfg.Workers = row.workers
	return cfg
}

// life is a played row: the session, the test's record of every step
// it executed, how much of the stream and the documents it ingested,
// which refs left ({KB, ""} for a whole KB), and the last leg's result
// unless a departure followed it.
type life struct {
	s         *Session
	h         *history
	next, doc int
	gone      map[Ref]bool
	last      *Result
}

// playLife runs the row's load, Start and ops on a fresh pipeline and
// ends the life with a read. The ops:
//
//	i  Ingest the next n stream descriptions
//	a  the same through Pipeline.Add, which routes to the session
//	e  Evict n random live descriptions (at least one stays)
//	x  Evict the stream descriptions at refs
//	K  IngestKB the next document
//	E  EvictKB betaKB
//	r  Resume(n)
//	p  Pending, a read
//
// Mutations make no pass; after every read the session's collection
// holds no tombstone.
func playLife(t *testing.T, row ruleRow, ops []ruleOp) *life {
	t.Helper()
	p := New(row.config())
	l := &life{next: row.pre, doc: row.preDocs, gone: make(map[Ref]bool)}
	if err := p.Add(row.stream[:row.pre]); err != nil {
		t.Fatal(err)
	}
	for i := range row.preDocs {
		if err := p.LoadKB(row.docKBs[i], strings.NewReader(row.docs[i])); err != nil {
			t.Fatal(err)
		}
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	h := &history{col: s.col}
	p.testLeg = func(s *Session, trace []core.Step) {
		// The leg's read made the pass, so its steps are in the id space
		// of the collection that pass compacted into.
		h.remap(s.col)
		h.steps = append(h.steps, trace...)
		h.executed += len(trace)
	}
	rng := rand.New(rand.NewSource(row.seed))
	evict := func(refs []Ref) error {
		for _, r := range refs {
			l.gone[r] = true
		}
		l.last = nil
		return s.Evict(refs)
	}
	for _, op := range ops {
		switch op.kind {
		case 'i', 'a':
			hi := min(l.next+op.n, len(row.stream))
			if op.kind == 'i' {
				err = s.Ingest(row.stream[l.next:hi])
			} else {
				err = p.Add(row.stream[l.next:hi])
			}
			l.next = hi
		case 'e':
			var live []Ref
			for id := 0; id < s.col.Len(); id++ {
				if s.col.Alive(id) {
					live = append(live, s.ref(id))
				}
			}
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			err = evict(live[:min(op.n, len(live)-1)])
		case 'x':
			var refs []Ref
			for _, i := range op.refs {
				refs = append(refs, Ref{KB: row.stream[i].KB, URI: row.stream[i].URI})
			}
			err = evict(refs)
		case 'K':
			err = s.IngestKB(row.docKBs[l.doc], strings.NewReader(row.docs[l.doc]))
			l.doc++
		case 'E':
			l.gone[Ref{KB: "betaKB"}], l.last = true, nil
			err = s.EvictKB("betaKB")
		case 'r':
			l.last, err = s.Resume(op.n)
		case 'p':
			s.Pending()
		}
		if err != nil {
			t.Fatalf("op %c%d: %v", op.kind, op.n, err)
		}
		if !op.wave() {
			compacted(t, s, h, fmt.Sprintf("op %c%d", op.kind, op.n))
		}
	}
	s.Pending() // the read that makes the pass the last mutations left
	compacted(t, s, h, "the closing read")
	l.s, l.h = s, h
	return l
}

// fresh starts a new pipeline over what the life ingested and did not
// evict, read off the row's own stream and documents (a KB's documents
// as one), never off the session.
func (l *life) fresh(t *testing.T, row ruleRow) *Session {
	t.Helper()
	p := New(row.config())
	var live []Description
	for _, d := range row.stream[:l.next] {
		if !l.gone[Ref{KB: d.KB, URI: d.URI}] && !l.gone[Ref{KB: d.KB}] {
			live = append(live, d)
		}
	}
	if err := p.Add(live); err != nil {
		t.Fatal(err)
	}
	var kbs []string
	byKB := make(map[string]string)
	for i, name := range row.docKBs[:l.doc] {
		if _, ok := byKB[name]; !ok {
			kbs = append(kbs, name)
		}
		byKB[name] += row.docs[i]
	}
	for _, name := range kbs {
		if err := p.LoadKB(name, strings.NewReader(byKB[name])); err != nil {
			t.Fatal(err)
		}
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compacted checks, after a read, that the session's collection holds
// no tombstone, and moves the record into its id space.
func compacted(t *testing.T, s *Session, h *history, what string) {
	t.Helper()
	if n := s.col.Tombstones(); n != 0 {
		t.Fatalf("%s: the session's collection holds %d tombstones", what, n)
	}
	h.remap(s.col)
}

// resume is Session.Resume for a leg the test expects to succeed.
func resume(t *testing.T, s *Session, budget int) *Result {
	t.Helper()
	out, err := s.Resume(budget)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ruleRows are the lives TestRebuildRuleEquation checks: random
// ingest/evict/Resume lives on a small LOD world, and fixed lives on
// hardSessionWorld worlds, where discovery and rechecks fire — ingest
// waves (an empty one first, and post-Start Pipeline.Add waves) into
// an unspent session, interleaved
// ingests and evictions, one eviction per read (a compaction each),
// waves between budgeted legs, a document split mid-subject, and a
// whole KB evicted (clean–clean becomes dirty).
func ruleRows(t *testing.T) []ruleRow {
	var rows []ruleRow
	lod := lodStream(t, 11, 100)
	for _, evictions := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rows = append(rows, ruleRow{
				name:    fmt.Sprintf("compaction=%v/seed=%d", evictions, seed),
				workers: 1 + int(seed%2), seed: seed, stream: lod, pre: len(lod) / 2,
				ops: append([]ruleOp{{kind: 'r', n: 40}}, randomLife(rand.New(rand.NewSource(seed)), 8, evictions)...),
			})
		}
	}
	i := func(n int) ruleOp { return ruleOp{kind: 'i', n: n} }
	a := func(n int) ruleOp { return ruleOp{kind: 'a', n: n} }
	x := func(refs ...int) ruleOp { return ruleOp{kind: 'x', refs: refs} }
	r := func(n int) ruleOp { return ruleOp{kind: 'r', n: n} }
	var one []ruleOp // one eviction per read
	for j := range 6 {
		one = append(one, x(j), ruleOp{kind: 'p'})
	}
	ingest := streamOf(hardSessionWorld(t, 271, 140))
	evict := streamOf(hardSessionWorld(t, 671, 140))
	compact := streamOf(hardSessionWorld(t, 681, 120))
	legs := streamOf(hardSessionWorld(t, 676, 140))
	n, third := (len(ingest)-len(ingest)/4)/5, len(evict)/3
	for _, w := range []int{1, 4} {
		rows = append(rows,
			ruleRow{name: fmt.Sprintf("ingest/workers=%d", w), workers: w, stream: ingest, pre: len(ingest) / 4,
				ops: []ruleOp{i(0), i(n), a(n), i(n), a(n), i(len(ingest))}},
			ruleRow{name: fmt.Sprintf("evict/workers=%d", w), workers: w, stream: evict, pre: third,
				ops: []ruleOp{x(2, 9, 10), i(third), x(0, third+3, third+8), i(len(evict)), x(2*third+5, 17)}},
			ruleRow{name: fmt.Sprintf("compaction/workers=%d", w), workers: w, stream: compact, pre: len(compact) / 2,
				ops: append(slices.Clip(one), i(len(compact)))},
			ruleRow{name: fmt.Sprintf("interleaved/workers=%d", w), workers: w, stream: legs, pre: len(legs) / 2,
				ops: []ruleOp{r(60), x(1, 4, 11, 22), r(40), i(len(legs))}})
	}
	world := hardSessionWorld(t, 272, 120)
	beta := world.Triples("betaKB")
	cut := len(beta)/2 + 1 // deliberately not on a subject boundary
	row := ruleRow{name: "ingestkb", workers: 4, docKBs: []string{"alpha", "betaKB", "betaKB"}, preDocs: 2,
		ops: []ruleOp{{kind: 'K'}}}
	for _, part := range [][]rdf.Triple{world.Triples("alpha"), beta[:cut], beta[cut:]} {
		doc, err := rdf.WriteString(part)
		if err != nil {
			t.Fatal(err)
		}
		row.docs = append(row.docs, doc)
	}
	kbs := streamOf(hardSessionWorld(t, 672, 100))
	return append(rows, row, ruleRow{name: "evictkb", workers: 4, stream: kbs, pre: len(kbs),
		ops: []ruleOp{{kind: 'E'}}})
}

// TestRebuildRuleEquation states the session's one rebuild rule as an
// equation. After every wave of each life in ruleRows, the session's
// draining Resume(0) leg equals, step for step in every field, the
// drained run of a fresh front end and matcher over the live collection
// with NewResolver + Retract over the test's own record of every
// executed step (failed ones included, filtered to live ids); and the
// session's clusters equal that resolver's. The session keeps only its
// merges and never sees that record, so the equation also checks that
// the merges are all the history a pass needs. After every read the
// session's collection holds no tombstone, and a life that has not
// evicted has not compacted. Waves that only add keep every match at
// its place: the last leg's matches open the drained result. A drained
// session stays drained: Pending is 0 and a further leg executes
// nothing.
//
// At empty history the right-hand side is also the public API's own: a
// fresh pipeline over the live corpus, read off the row rather than
// the session, answers a Resume(7) leg and then the draining leg
// exactly as the session does, statistics included; the two legs
// together are the drained run of the equation.
func TestRebuildRuleEquation(t *testing.T) {
	compactedLives := 0
	for _, row := range ruleRows(t) {
		t.Run(row.name, func(t *testing.T) {
			checked := 0
			for i, op := range row.ops {
				if !op.wave() {
					continue
				}
				l := playLife(t, row, row.ops[:i+1])
				s, h := l.s, l.h
				want := retractFresh(t, s, h.live())
				before := len(h.steps)
				var fresh *Session
				if h.executed == 0 {
					fresh = l.fresh(t, row)
					sameResult(t, fmt.Sprintf("after op %d: Resume(7)", i), resume(t, fresh, 7), resume(t, s, 7))
				}
				out := resume(t, s, 0)
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
				if fresh != nil {
					sameResult(t, fmt.Sprintf("after op %d: Resume(0)", i), resume(t, fresh, 0), out)
				}
				if l.last != nil && !slices.Equal(out.Matches[:min(len(l.last.Matches), len(out.Matches))], l.last.Matches) {
					t.Fatalf("after op %d: the matches of the leg before the waves moved", i)
				}
				if again := resume(t, s, 7); s.Pending() != 0 || again.Stats.Comparisons != out.Stats.Comparisons {
					t.Fatalf("after op %d: a drained session has %d pending and ran %d more comparisons",
						i, s.Pending(), again.Stats.Comparisons-out.Stats.Comparisons)
				}
				if len(l.gone) == 0 && h.compactions != 0 {
					t.Fatalf("after op %d: a life that has not evicted compacted %d times", i, h.compactions)
				}
				compactedLives += h.compactions
				checked++
			}
			if checked == 0 {
				t.Fatal("the life made no wave")
			}
		})
	}
	if compactedLives == 0 {
		t.Fatal("no life compacted — raise the eviction share")
	}
}
