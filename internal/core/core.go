package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
)

// Config tunes the progressive resolver.
type Config struct {
	// Benefit selects the targeted benefit model
	// (nil = AttributeCompleteness, the paper's headline model).
	Benefit BenefitModel
	// DisableDiscovery stops the update phase from enqueuing
	// comparisons that blocking never proposed (between neighbors of a
	// confirmed match). Discovery is on by default; it is what recovers
	// somehow-similar periphery matches.
	DisableDiscovery bool
	// Workers sets how many goroutines score the retained edges' value
	// similarities when the schedule is built (index, in NewResolver,
	// Retract and Reseed); 0 or 1 scores them on the calling goroutine.
	// The loop itself is serial. Every setting produces a bit-identical
	// trace.
	Workers int
}

const (
	// neighborBoost is the priority added to a queued or discovered
	// pair each time a pair of its neighbors is resolved.
	neighborBoost = 0.4
	// biasWeight scales the benefit model's scheduling bias relative
	// to the evidence weight.
	biasWeight = 0.25
)

// Step records one decided comparison.
type Step struct {
	A, B int
	// Score is the combined match score at execution time.
	Score float64
	// Matched reports whether the pair cleared the threshold.
	Matched bool
	// Merged reports whether the match united two distinct clusters.
	Merged bool
	// Discovered reports whether the pair came from neighbor-evidence
	// discovery rather than from blocking.
	Discovered bool
	// Recheck reports whether this is a re-examination of a pair that
	// failed earlier and has since gained neighbor evidence.
	Recheck bool
	// Gain is the targeted benefit realized by this step.
	Gain float64
}

// StepInfo reports the step's pair, score, and outcome; it satisfies
// internal/cluster's StepLike so traces feed the clusterers directly.
func (s Step) StepInfo() (int, int, float64, bool) {
	return s.A, s.B, s.Score, s.Matched
}

// Result summarizes a progressive run. Its unit is the decided pair: a
// popped pair the matcher decided, matched or not. A pair whose value
// similarity can never match (match.Matcher.CanMatch) is never queued
// (see Resolver.Gated), so it is never popped and has no Step.
type Result struct {
	// Trace lists every decided comparison in order.
	Trace []Step
	// Clusters is the final resolution state.
	Clusters *match.Clusters
	// Comparisons decided (== len(Trace)); a positive budget counts
	// these.
	Comparisons int
	// Matches confirmed (cluster-merging or not).
	Matches int
	// Discovered counts decided comparisons that blocking missed.
	Discovered int
	// Rechecks counts re-examinations triggered by new neighbor
	// evidence on previously failed pairs.
	Rechecks int
	// TotalGain is the cumulative targeted benefit.
	TotalGain float64
}

// MatchedPairs returns the distinct matched pairs implied by the final
// clusters (transitive closure), restricted to cross-KB pairs when the
// collection spans several KBs.
func (r *Result) MatchedPairs(m *match.Matcher) []blocking.Pair {
	col := m.Collection()
	cross := col.NumLiveKBs() > 1
	raw := r.Clusters.Pairs(col, cross)
	out := make([]blocking.Pair, len(raw))
	for i, p := range raw {
		out[i] = blocking.Pair{A: p[0], B: p[1]}
	}
	return out
}

// Timings reports the cumulative wall-clock time the resolver has
// spent in each stage of the progressive loop, summed over every run
// since construction (Retract and Reseed do not reset it). The three
// stages partition each RunBudgetContext call from entry to return:
// the clock is read once per stage boundary and every interval is
// charged to the stage it closes, so Schedule + Match + Update is the
// loop's wall time. Schedule is everything between decided comparisons —
// pops, lazy revalidation, reinsertion and the per-step result
// bookkeeping. Match is the match decision of the decided pairs, whose
// value similarities were scored when the schedule was built (index, in
// NewResolver, Retract and Reseed — outside RunBudget, so outside these
// counters); Update is benefit accounting, cluster merging, and
// neighbor-evidence propagation, including the ValueSim of each pair it
// discovers.
// Timings is read on the goroutine that runs the resolver — it is not
// synchronized for concurrent readers.
type Timings struct {
	Schedule time.Duration `json:"scheduleNs"`
	Match    time.Duration `json:"matchNs"`
	Update   time.Duration `json:"updateNs"`
}

// Resolver runs the progressive schedule → match → update loop. The
// loop itself is serial; building the schedule scores every retained
// edge on Config.Workers goroutines (index), and only pairs that can
// match are queued. Pair states live in a rank-addressed store
// (pairStates): a slab over the retained edges found through a
// per-entity CSR, plus a small map for the pairs outside the edge list
// — there is no map of every pair.
type Resolver struct {
	matcher *match.Matcher
	cfg     Config

	queue  queue
	states pairStates
	cl     *match.Clusters
	maxW   float64
	// floor is the priority at which a draining run stops: the benefit
	// model's stopFloor, or -Inf (drain) over a graph with no positive
	// weight, where every retained pair's base is 0.
	floor float64
	// gated counts the pairs the gate kept out of the queue since the
	// resolver was last built (see Gated).
	gated int
	tim   Timings
	// clk is the last stage boundary of the running loop (see lap).
	clk time.Time
}

// entry is one queue slot: the rank of the pair's state (popping
// indexes the state store directly — no lookup on the hot path) and its
// priority at push time. The slot stays at 16 bytes and holds no
// pointer, which matters — pops sift a slot down the whole heap, the
// heap holds every retained pair that can match plus every boost
// reinsertion, and the garbage collector never scans it.
type entry struct {
	rank int32
	prio float64
}

// pairKey packs a normalized pair into one word, so the map of pairs
// outside the edge list hashes and compares a single uint64 instead of
// a two-word struct. Description ids are array indexes and fit 32 bits
// with room to spare.
func pairKey(p blocking.Pair) uint64 {
	return uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
}

type pairState struct {
	pair  blocking.Pair // immutable after construction
	base  float64       // normalized meta-blocking weight
	boost float64       // accumulated neighbor-evidence priority
	// vsim is the pair's value similarity, scored when the state is
	// created (index, or the discovery in boost), so neither the gate
	// nor an execution or recheck scores it again. Value similarity is
	// cluster-independent: it can never go stale under one matcher.
	vsim float64
	// done marks a pair executed, resolved transitively, or gated:
	// its value similarity can never match, so it is never queued.
	done       bool
	discovered bool // true when blocking never proposed this pair
	recheck    bool // re-opened by neighbor evidence after failing
}

// NewResolver prepares a progressive run over the pruned comparison
// list from meta-blocking. Edges should be the output of Graph.Prune
// (any order; the scheduler orders them). It is a resolver with no
// history: Retract(m, edges, nil) on an empty one.
func NewResolver(m *match.Matcher, edges []metablocking.Edge, cfg Config) *Resolver {
	if cfg.Benefit == nil {
		cfg.Benefit = AttributeCompleteness{}
	}
	r := &Resolver{cfg: cfg}
	r.Retract(m, edges, nil)
	return r
}

// index is the one state-indexing step of NewResolver, Retract and
// Reseed: it sets maxW and the stop floor from the edges, gives each
// distinct retained pair one fresh state in edge order (indexEdges),
// scores every state's value similarity on Config.Workers goroutines,
// and gates the states that can never match. This is the decomposition
// Theoretically-Efficient Parallel DBSCAN applies to clustering
// (arXiv:1912.06255): the state-independent distance work in parallel,
// once, then the state mutation in order. Each worker writes only the
// vsim of the states in its chunks and reads only the immutable
// matcher, and the scoring returns after the last of them.
func (r *Resolver) index(edges []metablocking.Edge) {
	r.maxW = 0
	for _, e := range edges {
		if e.Weight > r.maxW {
			r.maxW = e.Weight
		}
	}
	r.floor = stopFloor(r.cfg.Benefit)
	if r.maxW == 0 {
		r.maxW = 1
		r.floor = math.Inf(-1)
	}
	r.states = indexEdges(edges, r.maxW)
	slab, m, workers := r.states.slab, r.matcher, max(r.cfg.Workers, 1)
	chunks := parmeta.Ranges(len(slab), 8*workers)
	parmeta.ForEach(len(chunks), workers, func(i int) {
		for j := chunks[i].Lo; j < chunks[i].Hi; j++ {
			slab[j].vsim = m.ValueSim(slab[j].pair.A, slab[j].pair.B)
		}
	})
	r.gated = 0
	for i := range slab {
		r.gate(&slab[i])
	}
}

// gate marks a scored state whose value similarity can never match
// (match.Matcher.CanMatch) done, counting it in Gated unless it was done
// already, and reports whether the state is such a dead pair. A dead
// pair would fail whatever its neighbor evidence, change no cluster and
// propagate nothing, so it is never queued; its state is kept, so the
// pair is never scored again.
func (r *Resolver) gate(st *pairState) bool {
	if r.matcher.CanMatch(st.vsim) {
		return false
	}
	if !st.done {
		st.done = true
		r.gated++
	}
	return true
}

// schedule rebuilds the queue from the pair states: one entry per open
// state, at its current priority. The queue's order is total, so the
// queue pops the same sequence whatever order the entries arrive in.
func (r *Resolver) schedule() {
	var entries []entry
	rank := int32(0)
	for st := range r.states.all() {
		if !st.done {
			entries = append(entries, entry{rank: rank, prio: r.priority(st.pair, st)})
		}
		rank++
	}
	r.queue = newQueue(entries)
}

// priority computes a pair's current scheduling priority.
func (r *Resolver) priority(p blocking.Pair, st *pairState) float64 {
	return st.base + st.boost + biasWeight*r.cfg.Benefit.Bias(p.A, p.B, r.cl, r.matcher)
}

// Clusters exposes the current resolution state (live during RunBudget).
func (r *Resolver) Clusters() *match.Clusters { return r.cl }

// Pending returns the number of queued (not yet executed) comparisons.
// Stale heap entries may inflate the count; it is an upper bound. A
// draining run that stopped at the floor leaves its tail queued, so
// Pending stays positive after it: the comparisons a budgeted run
// could still spend.
func (r *Resolver) Pending() int { return r.queue.Len() }

// Gated returns the number of pairs the gate kept out of the queue
// since the resolver was last built (NewResolver, Retract or Reseed):
// the retained edges and the discovered pairs whose value similarity
// can never match. Like Pending, it reads the current schedule, so a
// rebuild over another corpus can lower it.
func (r *Resolver) Gated() int { return r.gated }

// RunBudget executes the progressive loop until budget comparisons
// have been decided or the queue drains, returning the trace of this
// call. Pairs that can never match are not queued (Gated), so they
// spend no budget. Building the schedule (NewResolver, Retract,
// Reseed) scores the whole retained edge list, even when only a small
// positive budget follows; a session drains after every pass anyway. A
// budget of 0 runs until the schedule stops paying: it returns once
// the head entry's priority is below the benefit model's floor
// (stopFloor), and leaves that tail queued.
// A positive budget runs past the floor. The resolver keeps its state:
// calling RunBudget again continues the same pay-as-you-go session with
// a fresh budget, exactly as the paper's "until the cost budget is
// consumed" loop resumes when more budget arrives. Traces of successive
// calls concatenate to the trace of one larger-budget run: a stop
// leaves the queue exactly as it found the head, so RunBudget(0) then
// RunBudget(k) is the trace of one RunBudget of their total, and a
// second RunBudget(0) right after a stop executes nothing.
func (r *Resolver) RunBudget(budget int) *Result {
	return r.RunBudgetContext(context.Background(), budget)
}

// RunBudgetContext is RunBudget with cancellation: the loop checks ctx
// before each comparison is popped and stops early when the context is
// done, returning the trace executed so far.
// Cancellation never corrupts the resolver: every completed comparison
// is fully committed, so a later RunBudget continues exactly where the
// cancelled one stopped, and the concatenated traces still equal one
// uninterrupted run's. The caller learns about the interruption from
// ctx.Err(); the partial Result itself carries no error.
func (r *Resolver) RunBudgetContext(ctx context.Context, budget int) *Result {
	r.clk = time.Now()
	defer r.lap(&r.tim.Schedule)
	floor := math.Inf(-1)
	if budget == 0 {
		floor = r.floor
	}
	done := ctx.Done() // nil for Background: the check below vanishes
	res := &Result{Clusters: r.cl}
	for budget == 0 || res.Comparisons < budget {
		if done != nil {
			select {
			case <-done:
				return res
			default:
			}
		}
		step, ok := r.next(floor)
		if !ok {
			break
		}
		res.Comparisons++
		if step.Matched {
			res.Matches++
		}
		if step.Discovered {
			res.Discovered++
		}
		if step.Recheck {
			res.Rechecks++
		}
		res.TotalGain += step.Gain
		res.Trace = append(res.Trace, step)
	}
	return res
}

// Timings returns the cumulative per-stage wall-clock counters. Call
// it from the goroutine that runs the resolver, between runs.
func (r *Resolver) Timings() Timings { return r.tim }

// lap is a stage boundary: one clock read charges the interval since
// the previous boundary to the stage that just ended.
func (r *Resolver) lap(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(r.clk)
	r.clk = now
}

// next validates, executes, and propagates the head comparison, after
// dropping the heads that are resolved already. It reports false when
// the queue is empty or when the head entry's priority is below floor;
// the head then stays where it is, so the next run finds the queue as
// this one left it.
func (r *Resolver) next(floor float64) (Step, bool) {
	for {
		e, ok := r.queue.Peek()
		if !ok {
			return Step{}, false
		}
		st := r.states.at(e.rank)
		if st.done {
			r.queue.Pop() // stale entry
			continue
		}
		// The floor reads the head entry's priority, not the
		// recomputed one: revalidation only ever lowers an entry, so
		// where a run stops depends only on the live entries.
		if e.prio < floor {
			return Step{}, false
		}
		p := st.pair
		// Lazy revalidation: priorities drift as the state evolves; if
		// this entry is stale-high, reinsert at its current priority.
		if cur := r.priority(p, st); cur < e.prio-1e-9 {
			r.queue.Pop()
			r.queue.Push(entry{rank: e.rank, prio: cur})
			continue
		}
		r.queue.Pop()
		// Skip pairs already resolved transitively — their comparison
		// spends budget without any possible benefit.
		if r.cl.Same(p.A, p.B) {
			st.done = true
			continue
		}
		r.lap(&r.tim.Schedule)
		return r.execute(p, st), true
	}
}

func (r *Resolver) execute(p blocking.Pair, st *pairState) Step {
	st.done = true
	score, matched := r.matcher.DecideValue(p.A, p.B, st.vsim, r.cl)
	r.lap(&r.tim.Match)
	step := Step{A: p.A, B: p.B, Score: score, Matched: matched,
		Discovered: st.discovered, Recheck: st.recheck}
	if !matched {
		return step
	}
	step.Gain = r.cfg.Benefit.Gain(p.A, p.B, r.cl, r.matcher)
	step.Merged = r.cl.Merge(p.A, p.B)
	if step.Merged {
		r.propagate(p.A, p.B) // may grow the store: st is not read after it
	}
	r.lap(&r.tim.Update)
	return step
}

// propagate is the update phase: a confirmed match (a, b) is evidence
// for every pair formed from a-side and b-side neighbors (the matcher's
// neighborhoods already combine both link directions). Queued pairs get
// a priority boost; unseen cross-KB pairs are discovered, scored, and
// enqueued with the boost as their whole priority unless they are dead
// (gate).
func (r *Resolver) propagate(a, b int) {
	for _, x := range r.matcher.Neighbors(a) {
		for _, y := range r.matcher.Neighbors(b) {
			if x == y {
				continue
			}
			r.boost(blocking.MakePair(x, y))
		}
	}
}

func (r *Resolver) boost(p blocking.Pair) {
	col := r.matcher.Collection()
	if col.NumLiveKBs() > 1 && !col.CrossKB(p.A, p.B) {
		return
	}
	rank, st := r.states.find(p)
	if st == nil {
		if r.cfg.DisableDiscovery {
			return
		}
		// No blocking evidence: scored at discovery, and never queued if
		// dead.
		rank, st = r.states.add(pairState{pair: p, vsim: r.matcher.ValueSim(p.A, p.B), discovered: true})
	}
	if r.gate(st) {
		return
	}
	if st.done {
		// The pair was decided and failed, or is resolved (skipped
		// here). New neighbor evidence re-opens a failed pair: the paper's update phase promotes re-comparison of pairs
		// influenced by fresh matches. Re-executions spend budget like
		// any comparison and terminate because boosts only arise from
		// cluster merges, which are finite.
		if r.cl.Same(p.A, p.B) || r.cfg.DisableDiscovery {
			return
		}
		st.done = false
		st.recheck = true
	}
	st.boost += neighborBoost
	r.queue.Push(entry{rank: rank, prio: r.priority(p, st)})
}

// String renders a result summary.
func (r *Result) String() string {
	return fmt.Sprintf("comparisons=%d matches=%d discovered=%d gain=%.1f %s",
		r.Comparisons, r.Matches, r.Discovered, r.TotalGain, r.Clusters)
}
