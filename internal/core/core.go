package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocking"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
)

// Config tunes the progressive resolver.
type Config struct {
	// Budget is the maximum number of comparisons to execute
	// (0 = unlimited: run until the queue drains).
	Budget int
	// Benefit selects the targeted benefit model
	// (nil = AttributeCompleteness, the paper's headline model).
	Benefit BenefitModel
	// NeighborBoost is the priority added to a queued or discovered
	// pair each time a pair of its neighbors is resolved (default 0.4).
	NeighborBoost float64
	// BiasWeight scales the benefit model's scheduling bias relative
	// to the evidence weight (default 0.25).
	BiasWeight float64
	// DisableDiscovery stops the update phase from enqueuing
	// comparisons that blocking never proposed (between neighbors of a
	// confirmed match). Discovery is on by default; it is what recovers
	// somehow-similar periphery matches.
	DisableDiscovery bool
	// Workers sets the width of a draining run's value-similarity
	// pre-pass (see prescore): with n > 1, an unbudgeted Run first
	// scores every queued pair on n goroutines, then runs the serial
	// loop over the memoized scores. 0 or 1 — and every budgeted leg —
	// runs the serial loop alone, scoring each pair as it executes.
	// Every setting produces a bit-identical trace.
	Workers int
	// Normalized marks the config as fully specified: zero numeric
	// fields are taken literally instead of being replaced by the
	// documented defaults. DefaultConfig returns a normalized config,
	// so the idiomatic way to request a true zero — say BiasWeight 0
	// for pure evidence-order scheduling — is to start from
	// DefaultConfig and zero the field. A nil Benefit always means
	// AttributeCompleteness.
	Normalized bool
}

// DefaultConfig returns the documented defaults, normalized: zero a
// field of the result to get a literal zero instead of the default.
func DefaultConfig() Config {
	return Config{
		Benefit:       AttributeCompleteness{},
		NeighborBoost: 0.4,
		BiasWeight:    0.25,
		Normalized:    true,
	}
}

func (c Config) withDefaults() Config {
	if c.Benefit == nil {
		c.Benefit = AttributeCompleteness{}
	}
	if c.Normalized {
		return c
	}
	if c.NeighborBoost == 0 {
		c.NeighborBoost = 0.4
	}
	if c.BiasWeight == 0 {
		c.BiasWeight = 0.25
	}
	c.Normalized = true
	return c
}

// Step records one executed comparison.
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

// Result summarizes a progressive run.
type Result struct {
	// Trace lists every executed comparison in order.
	Trace []Step
	// Clusters is the final resolution state.
	Clusters *match.Clusters
	// Comparisons executed (== len(Trace)).
	Comparisons int
	// Matches confirmed (cluster-merging or not).
	Matches int
	// Discovered counts executed comparisons that blocking missed.
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
// spent in each stage of the progressive loop, summed over every Run
// since construction (Retract and Reseed do not reset it). The three
// stages partition each RunBudgetContext call from entry to return:
// the clock is read once per stage boundary and every interval is
// charged to the stage it closes, so Schedule + Match + Update is the
// loop's wall time. Schedule is everything between comparisons — pops,
// lazy revalidation, reinsertion and the per-step result bookkeeping;
// Match is similarity evaluation and the match decision, including the
// whole value-similarity pre-pass of a parallel draining run; Update is
// benefit accounting, cluster merging, and neighbor-evidence
// propagation.
// Timings is read on the goroutine that runs the resolver — it is not
// synchronized for concurrent readers.
type Timings struct {
	Schedule time.Duration `json:"scheduleNs"`
	Match    time.Duration `json:"matchNs"`
	Update   time.Duration `json:"updateNs"`
}

// Resolver runs the progressive schedule → match → update loop. The
// loop itself is serial; with Config.Workers > 1 a draining run first
// computes the queued pairs' value similarities in parallel (prescore).
type Resolver struct {
	matcher *match.Matcher
	cfg     Config

	queue  queue
	states map[uint64]*pairState
	cl     *match.Clusters
	maxW   float64
	tim    Timings
	// clk is the last stage boundary of the running loop (see lap).
	clk time.Time
}

// entry is one queue slot: the pair's state (popping dereferences it
// directly — no map lookup on the hot path) and its priority at push
// time. The slot stays at 16 bytes, which matters — pops sift a slot
// down the whole heap, and the heap holds every pruned edge plus
// every boost reinsertion.
type entry struct {
	st   *pairState
	prio float64
}

// pairKey packs a normalized pair into one word, so the scheduler's
// update-phase map hashes and compares a single uint64 instead of a
// two-word struct. Description ids are array indexes and fit 32 bits
// with room to spare.
func pairKey(p blocking.Pair) uint64 {
	return uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
}

// keyPair is the inverse of pairKey.
func keyPair(k uint64) blocking.Pair {
	return blocking.Pair{A: int(k >> 32), B: int(uint32(k))}
}

type pairState struct {
	pair       blocking.Pair // immutable after construction
	base       float64       // normalized meta-blocking weight
	boost      float64       // accumulated neighbor-evidence priority
	done       bool
	discovered bool // true when blocking never proposed this pair
	recheck    bool // re-opened by neighbor evidence after failing
	// vsim memoizes the pair's value similarity once it has been
	// computed — by the pre-pass or at execution — so a recheck is
	// free. Value similarity is cluster-independent: the memo can
	// never go stale.
	vsim    float64
	hasVsim bool
}

// NewResolver prepares a progressive run over the pruned comparison
// list from meta-blocking. Edges should be the output of Graph.Prune
// (any order; the scheduler orders them). It is a resolver with no
// history: Retract(m, edges, nil) on an empty one.
func NewResolver(m *match.Matcher, edges []metablocking.Edge, cfg Config) *Resolver {
	r := &Resolver{cfg: cfg.withDefaults()}
	r.Retract(m, edges, nil)
	return r
}

// index is the one queue-indexing step of NewResolver, Reseed and
// Retract: it sets maxW from the edges, gives each distinct retained
// pair one state in edge order, and returns the queue entries of the
// states left to execute, in that order, for newQueue to heapify.
// Fresh states come from one slab (its capacity is fixed, so the
// interior pointers stay valid). A pair that already has a state in
// old — only Reseed passes one — keeps it, minus its memoized value
// similarity (the matcher changed), and leaves old; if it was executed
// but not matched it re-opens as a recheck (Reseed's rule).
func (r *Resolver) index(edges []metablocking.Edge, old map[uint64]*pairState) []entry {
	r.maxW = 0
	for _, e := range edges {
		if e.Weight > r.maxW {
			r.maxW = e.Weight
		}
	}
	if r.maxW == 0 {
		r.maxW = 1
	}
	r.states = make(map[uint64]*pairState, len(edges))
	slab := make([]pairState, len(edges))
	used := 0
	entries := make([]entry, 0, len(edges))
	for _, e := range edges {
		p := blocking.MakePair(e.A, e.B)
		k := pairKey(p)
		if _, dup := r.states[k]; dup {
			continue
		}
		st := old[k]
		if st == nil {
			st = &slab[used]
			used++
			st.pair = p
		} else {
			delete(old, k)
			st.hasVsim, st.vsim = false, 0
			if st.done && !r.cl.Same(p.A, p.B) {
				// Executed but unmatched, and still retained: the ingest
				// changed the IDF landscape its decision was made under,
				// so it gets re-examined — the streaming form of a
				// recheck.
				st.done = false
				st.recheck = true
			}
		}
		st.base = e.Weight / r.maxW
		r.states[k] = st
		if !st.done {
			entries = append(entries, entry{st: st, prio: r.priority(p, st)})
		}
	}
	return entries
}

// priority computes a pair's current scheduling priority.
func (r *Resolver) priority(p blocking.Pair, st *pairState) float64 {
	return st.base + st.boost + r.cfg.BiasWeight*r.cfg.Benefit.Bias(p.A, p.B, r.cl, r.matcher)
}

// Clusters exposes the current resolution state (live during Run).
func (r *Resolver) Clusters() *match.Clusters { return r.cl }

// Pending returns the number of queued (not yet executed) comparisons.
// Stale heap entries may inflate the count; it is an upper bound.
func (r *Resolver) Pending() int { return r.queue.Len() }

// Run executes the progressive loop until the budget is exhausted or
// the queue drains, returning the trace of this call. The resolver
// keeps its state: calling Run again continues the same pay-as-you-go
// session with a fresh budget, exactly as the paper's "until the cost
// budget is consumed" loop resumes when more budget arrives. Traces of
// successive calls concatenate to the trace of one larger-budget run.
func (r *Resolver) Run() *Result { return r.RunBudget(r.cfg.Budget) }

// RunBudget is Run with a per-call budget override (0 = unlimited),
// for resumable sessions whose legs have different budgets.
func (r *Resolver) RunBudget(budget int) *Result {
	return r.RunBudgetContext(context.Background(), budget)
}

// RunBudgetContext is RunBudget with cancellation: the loop checks ctx
// before each comparison is popped and stops early when the context is
// done, returning the trace executed so far.
// Cancellation never corrupts the resolver: every completed comparison
// is fully committed, so a later Run continues exactly where the
// cancelled one stopped, and the concatenated traces still equal one
// uninterrupted run's. The caller learns about the interruption from
// ctx.Err(); the partial Result itself carries no error.
//
// A draining call (budget 0) with Config.Workers > 1 and a live
// context first runs the parallel pre-pass (prescore) to completion;
// the loop after it is the same serial loop either way.
func (r *Resolver) RunBudgetContext(ctx context.Context, budget int) *Result {
	r.clk = time.Now()
	defer r.lap(&r.tim.Schedule)
	if budget == 0 && r.cfg.Workers > 1 && ctx.Err() == nil {
		r.prescore()
		r.lap(&r.tim.Match)
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
		step, ok := r.next()
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
// it from the goroutine that runs the resolver, between Runs.
func (r *Resolver) Timings() Timings { return r.tim }

// prescore is the parallel half of a draining run, the decomposition
// Theoretically-Efficient Parallel DBSCAN applies to clustering
// (arXiv:1912.06255): do the state-independent distance work in
// parallel, then the state mutation in order. Value similarity depends
// on neither the cluster state nor the schedule, so every queued pair
// the run may execute is scored up front across Config.Workers
// goroutines, and the serial loop then reads the memo. One serial walk
// over the queue claims each state that is neither executed nor
// memoized; the claim sets hasVsim at once, so a state's stale
// duplicate heap entries share it. The workers each
// write only the vsim of the states in their chunks and read only the
// immutable matcher, and the call returns after the last of them, so
// no state is ever marked scored without its score and no goroutine
// outlives it. Pairs the update phase boosts or discovers later are
// scored inline when they execute.
func (r *Resolver) prescore() {
	var todo []*pairState
	for _, e := range r.queue.items {
		st := e.st
		if st.done || st.hasVsim {
			continue
		}
		st.hasVsim = true
		todo = append(todo, st)
	}
	m := r.matcher
	chunks := parmeta.Ranges(len(todo), 8*r.cfg.Workers)
	parmeta.ForEach(len(chunks), r.cfg.Workers, func(i int) {
		for _, st := range todo[chunks[i].Lo:chunks[i].Hi] {
			st.vsim = m.ValueSim(st.pair.A, st.pair.B)
		}
	})
}

// lap is a stage boundary: one clock read charges the interval since
// the previous boundary to the stage that just ended.
func (r *Resolver) lap(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(r.clk)
	r.clk = now
}

// next pops, validates, executes, and propagates one comparison.
func (r *Resolver) next() (Step, bool) {
	for {
		e, ok := r.queue.Pop()
		if !ok {
			return Step{}, false
		}
		st := e.st
		if st.done {
			continue // stale entry
		}
		p := st.pair
		// Lazy revalidation: priorities drift as the state evolves; if
		// this entry is stale-high, reinsert at its current priority.
		cur := r.priority(p, st)
		if cur < e.prio-1e-9 {
			r.queue.Push(entry{st: st, prio: cur})
			continue
		}
		// Skip pairs already resolved transitively — their comparison
		// spends budget without any possible benefit. A pre-pass score
		// it may have received is dead weight in its state, never
		// consulted again.
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
	score, matched := r.matcher.DecideValue(p.A, p.B, r.valueSim(p, st), r.cl)
	r.lap(&r.tim.Match)
	step := Step{A: p.A, B: p.B, Score: score, Matched: matched,
		Discovered: st.discovered, Recheck: st.recheck}
	if !matched {
		return step
	}
	step.Gain = r.cfg.Benefit.Gain(p.A, p.B, r.cl, r.matcher)
	step.Merged = r.cl.Merge(p.A, p.B)
	if step.Merged {
		r.propagate(p.A, p.B)
	}
	r.lap(&r.tim.Update)
	return step
}

// valueSim returns the pair's value similarity: memoized by the
// pre-pass or an earlier execution (a recheck re-decides the pair, but
// its value evidence cannot have changed), or computed inline.
// ValueSim is deterministic and cluster-independent, so either source
// yields the same float.
func (r *Resolver) valueSim(p blocking.Pair, st *pairState) float64 {
	if st.hasVsim {
		return st.vsim
	}
	v := r.matcher.ValueSim(p.A, p.B)
	st.vsim, st.hasVsim = v, true
	return v
}

// propagate is the update phase: a confirmed match (a, b) is evidence
// for every pair formed from a-side and b-side neighbors (the matcher's
// neighborhoods already combine both link directions). Queued pairs get
// a priority boost; unseen cross-KB pairs are discovered and enqueued
// with the boost as their whole priority.
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
	k := pairKey(p)
	st := r.states[k]
	if st == nil {
		if r.cfg.DisableDiscovery {
			return
		}
		st = &pairState{pair: p, discovered: true} // no blocking evidence
		r.states[k] = st
	}
	if st.done {
		// The pair was already compared and failed (matched pairs are
		// resolved and filtered above). New neighbor evidence re-opens
		// it: the paper's update phase promotes re-comparison of pairs
		// influenced by fresh matches. Re-executions spend budget like
		// any comparison and terminate because boosts only arise from
		// cluster merges, which are finite.
		if r.cl.Same(p.A, p.B) || r.cfg.DisableDiscovery {
			return
		}
		st.done = false
		st.recheck = true
	}
	st.boost += r.cfg.NeighborBoost
	r.queue.Push(entry{st: st, prio: r.priority(p, st)})
}

// String renders a result summary.
func (r *Result) String() string {
	return fmt.Sprintf("comparisons=%d matches=%d discovered=%d gain=%.1f %s",
		r.Comparisons, r.Matches, r.Discovered, r.TotalGain, r.Clusters)
}
