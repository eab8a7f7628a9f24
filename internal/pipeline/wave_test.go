package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blocking"
	"repro/internal/datagen"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// interleavedIDs reorders src's ids round-robin across KBs so every
// ingest batch spans all KBs (the steady-state streaming shape).
func interleavedIDs(src *kb.Collection) []int {
	perKB := make([][]int, src.NumKBs())
	for id := 0; id < src.Len(); id++ {
		perKB[src.KBOf(id)] = append(perKB[src.KBOf(id)], id)
	}
	var out []int
	for i := 0; len(out) < src.Len(); i++ {
		for _, ids := range perKB {
			if i < len(ids) {
				out = append(out, ids[i])
			}
		}
	}
	return out
}

// waveSource is a collection under a seeded stream of mutations: it
// grows from a pool of generated descriptions, merges late attributes
// into descriptions it already holds, and tombstones live ones.
type waveSource struct {
	col   *kb.Collection
	pool  *kb.Collection
	order []int // pool ids, interleaved across KBs
	next  int   // order[:next] have been added
	rng   *rand.Rand
	notes int // distinct late-attribute values handed out
}

func (w *waveSource) add(n int) (first int) {
	first = w.col.Len()
	for ; n > 0 && w.next < len(w.order); n-- {
		d := w.pool.Desc(w.order[w.next])
		w.col.Add(&kb.Description{URI: d.URI, KB: d.KB, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
		w.next++
	}
	return first
}

func (w *waveSource) live() []int {
	var ids []int
	for id := 0; id < w.col.Len(); id++ {
		if w.col.Alive(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// merge re-adds n live descriptions' KB+URI with a fresh attribute —
// new tokens for ids the state already covers.
func (w *waveSource) merge(n int) {
	live := w.live()
	for ; n > 0; n-- {
		id := live[w.rng.Intn(len(live))]
		w.notes++
		w.col.Add(&kb.Description{URI: w.col.URIOf(id), KB: w.col.KBName(w.col.KBOf(id)), Attrs: []kb.Attribute{
			{Predicate: "late", Value: fmt.Sprintf("lateinfo extranote%d", w.notes)},
		}})
	}
}

func (w *waveSource) evict(n int) {
	live := w.live()
	for ; n > 0; n-- {
		w.col.Evict(live[w.rng.Intn(len(live))]) // a repeat is a no-op
	}
}

// checkAgainstCompacted is the oracle of the streaming front-end: the
// state over a source that was grown, merged into and tombstoned must
// equal, under the order-preserving id map, a Run over a collection
// that never held the departed descriptions — same blocks, same graph
// edges, same retained comparisons, weights bit for bit.
func checkAgainstCompacted(t *testing.T, label string, e Engine, st *State, src *kb.Collection, opt Options) {
	t.Helper()
	compact, oldToNew := src.Compact()
	want, err := Run(e, compact, opt)
	if err != nil {
		t.Fatal(err)
	}
	mapID := func(id int) int {
		if oldToNew[id] < 0 {
			t.Fatalf("%s: front-end holds tombstoned id %d", label, id)
		}
		return oldToNew[id]
	}
	mapEdges := func(es []metablocking.Edge) []metablocking.Edge {
		out := make([]metablocking.Edge, len(es))
		for i, e := range es {
			out[i] = metablocking.Edge{A: mapID(e.A), B: mapID(e.B), Weight: e.Weight}
		}
		return out
	}
	got := &blocking.Collection{CleanClean: st.Front.Blocks.CleanClean}
	for _, b := range st.Front.Blocks.Blocks {
		nb := blocking.Block{Key: b.Key}
		for _, id := range b.Entities {
			nb.Entities = append(nb.Entities, mapID(id))
		}
		got.Blocks = append(got.Blocks, nb)
	}
	sameCollection(t, label, want.Blocks, got)
	sameEdges(t, slices.Collect(want.Graph.Edges()), mapEdges(slices.Collect(st.Front.Graph.Edges())))
	sameEdges(t, want.Edges, mapEdges(st.Front.Edges))
	if st.LastUpdate.EdgesTouched != st.Front.Graph.NumEdges() || !st.LastUpdate.Rebuilt || !st.LastReprune.Full {
		t.Fatalf("%s: pass reported %+v %+v, want every edge, rebuilt, full", label, st.LastUpdate, st.LastReprune)
	}
}

// TestWavesMatchFromScratch is the one differential behind streaming:
// for every engine, weighting scheme and pruning algorithm, a seeded
// random interleaving of waves — additions, merges into covered
// descriptions, evictions, all three at once including a description
// tombstoned before any pass saw it, a wave that changed nothing, a
// re-Start over the tombstoned source, the departure of a whole KB
// (clean–clean turns dirty) and its return — leaves the state, after
// every pass, equal to a from-scratch Run over a corpus that never held
// the departed descriptions. Ingest and Evict are one operation, so
// each wave calls whichever the seed picks.
func TestWavesMatchFromScratch(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(421, 90, datagen.Center(), datagen.Periphery()))
	if err != nil {
		t.Fatal(err)
	}
	pool := w.Collection
	order := interleavedIDs(pool)
	engines := []struct {
		name string
		e    Engine
	}{
		{"sequential", Sequential{}},
		{"shared-2", Shared{Workers: 2}},
		{"shared-4", Shared{Workers: 4}},
	}
	steps := []string{"add", "merge", "evict", "mixed", "noop", "restart"}
	seed := int64(0)
	for _, scheme := range metablocking.Schemes() {
		for _, pruning := range metablocking.Prunings() {
			seed++
			opt := Options{
				Tokenize:    tokenize.Default(),
				FilterRatio: 0.8,
				Scheme:      scheme,
				Pruning:     pruning,
				Reciprocal:  seed%2 == 0,
			}
			for _, eng := range engines {
				seed, eng := seed, eng
				t.Run(fmt.Sprintf("%v/%v/%s", scheme, pruning, eng.name), func(t *testing.T) {
					src := &waveSource{col: kb.NewCollection(), pool: pool, order: order,
						rng: rand.New(rand.NewSource(seed))}
					src.add(len(order) / 2)
					st, err := Start(eng.e, src.col, opt)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstCompacted(t, "start", eng.e, st, src.col, opt)

					script := append([]string(nil), steps...)
					src.rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
					script = append(script, "dropKB", "add")
					for i, step := range script {
						label := fmt.Sprintf("step %d (%s)", i, step)
						switch step {
						case "add":
							src.add(1 + src.rng.Intn(12))
						case "merge":
							src.add(src.rng.Intn(4))
							src.merge(1 + src.rng.Intn(3))
						case "evict":
							src.evict(1 + src.rng.Intn(8))
						case "mixed":
							ghost := src.add(2 + src.rng.Intn(8))
							src.col.Evict(ghost) // gone before any pass saw it
							src.merge(1)
							src.evict(1 + src.rng.Intn(4))
						case "restart":
							if st, err = Start(eng.e, src.col, opt); err != nil {
								t.Fatal(err)
							}
							src.add(1)
						case "dropKB":
							for _, id := range src.col.LiveIDsOfKB(src.col.KBName(1)) {
								src.col.Evict(id)
							}
						}
						pass := eng.e.Ingest
						if src.rng.Intn(2) == 0 {
							pass = eng.e.Evict
						}
						if err := pass(st); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						checkAgainstCompacted(t, label, eng.e, st, src.col, opt)
					}
				})
			}
		}
	}
}

// probeStages names the engine stages a pass calls, in Run's order.
var probeStages = []string{"blocking", "purge", "filter", "build", "prune"}

// probeEngine counts the stage calls a pass makes and fails the stage
// named by fail on demand. Its Ingest and Evict run the shared pass
// with the probe itself as the engine, as Shared's do.
type probeEngine struct {
	Engine
	calls map[string]int // stage → calls since the last reset
	fail  string
}

var errProbe = errors.New("injected stage fault")

// enter counts a call to stage and returns the injected fault if the
// stage is the one set to fail.
func (p *probeEngine) enter(stage string) error {
	p.calls[stage]++
	if p.fail == stage {
		return errProbe
	}
	return nil
}

// checkOnePass fails unless every stage was called want times since
// the last reset.
func (p *probeEngine) checkOnePass(t *testing.T, label string, want int) {
	t.Helper()
	for _, stage := range probeStages {
		if p.calls[stage] != want {
			t.Fatalf("%s made %v stage calls, want %d of each of %v", label, p.calls, want, probeStages)
		}
	}
}

func (p *probeEngine) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	if err := p.enter("blocking"); err != nil {
		return nil, err
	}
	return p.Engine.TokenBlocking(src, opts)
}

func (p *probeEngine) Purge(col *blocking.Collection, maxSize int) (*blocking.Collection, error) {
	if err := p.enter("purge"); err != nil {
		return nil, err
	}
	return p.Engine.Purge(col, maxSize)
}

func (p *probeEngine) Filter(col *blocking.Collection, ratio float64) (*blocking.Collection, error) {
	if err := p.enter("filter"); err != nil {
		return nil, err
	}
	return p.Engine.Filter(col, ratio)
}

func (p *probeEngine) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	if err := p.enter("build"); err != nil {
		return nil, err
	}
	return p.Engine.Build(col, scheme)
}

func (p *probeEngine) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	if err := p.enter("prune"); err != nil {
		return nil, err
	}
	return p.Engine.Prune(g, alg, opts)
}

func (p *probeEngine) Ingest(st *State) error { return st.pass(p) }
func (p *probeEngine) Evict(st *State) error  { return st.pass(p) }

func probeFixture(t *testing.T) (*probeEngine, *waveSource, *State, Options) {
	t.Helper()
	w, err := datagen.Generate(datagen.TwoKBs(423, 60, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Tokenize: tokenize.Default(), FilterRatio: 0.8,
		Scheme: metablocking.ECBS, Pruning: metablocking.WNP}
	src := &waveSource{col: kb.NewCollection(), pool: w.Collection,
		order: interleavedIDs(w.Collection), rng: rand.New(rand.NewSource(423))}
	src.add(80)
	p := &probeEngine{Engine: Sequential{}, calls: map[string]int{}}
	st, err := Start(p, src.col, opt)
	if err != nil {
		t.Fatal(err)
	}
	return p, src, st, opt
}

// TestOnePassPerCall pins the cost of a wave at the engine boundary:
// whatever a wave carried — arrivals, departures, both, or nothing —
// bringing the state up to date is exactly one call of each stage —
// blocking, purge, filter, build, prune. The state keeps no record of
// what changed, so a call over an unchanged source runs the pass too,
// and retains the same comparisons to the bit. (Skipping waves that
// change nothing is the session's job, not the engine's.)
func TestOnePassPerCall(t *testing.T) {
	p, src, st, _ := probeFixture(t)
	waves := []struct {
		name   string
		mutate func()
		pass   func(*State) error
	}{
		{"ingest", func() { src.add(7); src.merge(1) }, p.Ingest},
		{"evict", func() { src.evict(5) }, p.Evict},
		{"ingest+evict", func() { src.add(7); src.evict(5) }, p.Evict},
		{"unchanged source", func() {}, p.Ingest},
	}
	for _, wv := range waves {
		p.calls = map[string]int{}
		wv.mutate()
		before := st.Front.Edges
		if err := wv.pass(st); err != nil {
			t.Fatalf("%s: %v", wv.name, err)
		}
		p.checkOnePass(t, wv.name+" wave", 1)
		if wv.name == "unchanged source" {
			sameEdges(t, before, st.Front.Edges)
		}
	}
}

// TestFailedPassLeavesStateUntouched: a pass whose blocking, purge,
// filter, build or prune stage fails must not swap the front-end — the
// next call, the fault gone, commits the same work.
func TestFailedPassLeavesStateUntouched(t *testing.T) {
	for _, stage := range probeStages {
		t.Run(stage, func(t *testing.T) {
			p, src, st, opt := probeFixture(t)
			src.add(9)
			src.merge(2)
			src.evict(4)
			front, update := st.Front, st.LastUpdate
			p.fail = stage
			if err := p.Ingest(st); !errors.Is(err, errProbe) {
				t.Fatalf("Ingest = %v, want the injected fault", err)
			}
			if st.Front != front || st.LastUpdate != update {
				t.Fatal("failed pass swapped the front-end")
			}
			p.fail = ""
			if err := p.Evict(st); err != nil {
				t.Fatal(err)
			}
			checkAgainstCompacted(t, "retry", p, st, src.col, opt)
		})
	}
}
