// Package experiments regenerates the reconstructed evaluation of the
// paper (README "## Benchmarks" lists them; the Shape tests pin what
// each must show): one function per table/figure, each
// returning a printable Table whose rows the benchmarks and the bench
// CLI reproduce. Experiments are deterministic in their seed.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "-- %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f3(x float64) string { return strconv.FormatFloat(x, 'f', 3, 64) }
func f4(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }
func itoa(x int) string   { return strconv.Itoa(x) }

// stack bundles the shared pipeline stages for one workload.
type stack struct {
	world *datagen.World
	raw   *blocking.Collection // token blocking, uncleaned
	col   *blocking.Collection // purged + filtered
	graph *metablocking.Graph
	edges []metablocking.Edge
	m     *match.Matcher
}

func buildStack(w *datagen.World) *stack {
	raw := blocking.TokenBlocking(w.Collection, tokenize.Default())
	col := raw.Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	return &stack{
		world: w, raw: raw, col: col, graph: g, edges: edges,
		m: match.NewMatcher(w.Collection, match.DefaultOptions()),
	}
}

func mustGenerate(cfg datagen.Config) *datagen.World {
	w, err := datagen.Generate(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: generator config invalid: %v", err))
	}
	return w
}

// truthOutcomes marks each executed comparison that confirmed a
// ground-truth match.
func truthOutcomes(res *core.Result, w *datagen.World) []bool {
	out := make([]bool, len(res.Trace))
	for i, s := range res.Trace {
		out[i] = s.Matched && w.Truth.Match(s.A, s.B)
	}
	return out
}

// F1Pipeline traces Figure 1: every stage of the Minoan ER workflow on
// a quickstart workload, reporting what each stage contributes.
func F1Pipeline(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Periphery()))
	t := &Table{
		ID:     "F1",
		Title:  "Minoan ER pipeline, stage by stage (Figure 1)",
		Header: []string{"stage", "output", "candidates", "PC", "PQ"},
	}
	brute := eval.BruteForceComparisons(w.Collection)
	t.Rows = append(t.Rows, []string{"input", fmt.Sprintf("%d descriptions / %d KBs", w.Collection.Len(), w.Collection.NumKBs()), itoa(brute), "1.000", f3(float64(w.Truth.CrossKBMatchingPairs(w.Collection)) / float64(brute))})

	raw := blocking.TokenBlocking(w.Collection, tokenize.Default())
	qRaw := eval.EvaluateBlocks(raw, w.Truth)
	t.Rows = append(t.Rows, []string{"blocking", fmt.Sprintf("%d blocks", raw.NumBlocks()), itoa(qRaw.Candidates), f3(qRaw.PC), f3(qRaw.PQ)})

	col := raw.Purge(0).Filter(0.8)
	qCleaned := eval.EvaluateBlocks(col, w.Truth)
	t.Rows = append(t.Rows, []string{"block cleaning", fmt.Sprintf("%d blocks", col.NumBlocks()), itoa(qCleaned.Candidates), f3(qCleaned.PC), f3(qCleaned.PQ)})

	g := metablocking.Build(col, metablocking.ECBS, 1)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	qPruned := eval.EvaluateEdges(w.Collection, w.Truth, edges)
	t.Rows = append(t.Rows, []string{"meta-blocking", fmt.Sprintf("%d edges", len(edges)), itoa(qPruned.Candidates), f3(qPruned.PC), f3(qPruned.PQ)})

	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	res := core.NewResolver(m, edges, core.Config{}).RunBudget(0)
	q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(m))
	t.Rows = append(t.Rows, []string{"schedule+match+update", fmt.Sprintf("%d matches (%d discovered cmps)", res.Matches, res.Discovered), itoa(res.Comparisons), f3(q.Recall), f3(q.Precision)})
	t.Notes = "final row: PC column = recall, PQ column = precision of resolved pairs"
	return t
}

// T1Blocking compares token blocking and attribute-clustering blocking
// across workload sizes: PC stays near 1 in the center of the cloud
// while RR removes the bulk of the brute-force comparisons.
func T1Blocking(seed int64, sizes []int) *Table {
	t := &Table{
		ID:     "T1",
		Title:  "Blocking on highly similar (center) KB pairs",
		Header: []string{"entities", "method", "blocks", "candidates", "PC", "PQ", "RR"},
	}
	for _, n := range sizes {
		w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
		tok := blocking.TokenBlocking(w.Collection, tokenize.Default())
		qTok := eval.EvaluateBlocks(tok, w.Truth)
		t.Rows = append(t.Rows, []string{itoa(n), "token", itoa(tok.NumBlocks()), itoa(qTok.Candidates), f3(qTok.PC), f4(qTok.PQ), f3(qTok.RR)})
		ac := blocking.AttributeClustering(w.Collection, tokenize.Default())
		qAC := eval.EvaluateBlocks(ac, w.Truth)
		t.Rows = append(t.Rows, []string{itoa(n), "attr-cluster", itoa(ac.NumBlocks()), itoa(qAC.Candidates), f3(qAC.PC), f4(qAC.PQ), f3(qAC.RR)})
	}
	t.Notes = "expected shape: PC≈1 for token blocking; attr-cluster trades a little PC for higher PQ"
	return t
}

// T2BlockCleaning isolates block purging and block filtering.
func T2BlockCleaning(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	t := &Table{
		ID:     "T2",
		Title:  "Block cleaning: purging and filtering",
		Header: []string{"variant", "blocks", "candidates", "PC", "PQ", "RR"},
	}
	raw := blocking.TokenBlocking(w.Collection, tokenize.Default())
	variants := []struct {
		name string
		col  *blocking.Collection
	}{
		{"none", raw},
		{"purge", raw.Purge(0)},
		{"filter(0.8)", raw.Filter(0.8)},
		{"purge+filter", raw.Purge(0).Filter(0.8)},
	}
	for _, v := range variants {
		q := eval.EvaluateBlocks(v.col, w.Truth)
		t.Rows = append(t.Rows, []string{v.name, itoa(v.col.NumBlocks()), itoa(q.Candidates), f3(q.PC), f4(q.PQ), f3(q.RR)})
	}
	t.Notes = "expected shape: candidates shrink monotonically with little PC loss"
	return t
}

// T3MetaBlocking sweeps the weighting × pruning grid.
func T3MetaBlocking(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	base := eval.EvaluateBlocks(col, w.Truth)
	t := &Table{
		ID:     "T3",
		Title:  "Meta-blocking: weighting schemes × pruning algorithms",
		Header: []string{"scheme", "pruning", "kept", "kept%", "PC", "PQ"},
		Notes: fmt.Sprintf("before pruning: %d candidates, PC=%s — pruning retains a fraction at modest PC cost",
			base.Candidates, f3(base.PC)),
	}
	opts := metablocking.PruneOptions{Assignments: col.Assignments()}
	for _, scheme := range metablocking.Schemes() {
		g := metablocking.Build(col, scheme, 1)
		for _, alg := range metablocking.Prunings() {
			kept := g.Prune(alg, opts)
			q := eval.EvaluateEdges(w.Collection, w.Truth, kept)
			t.Rows = append(t.Rows, []string{
				scheme.String(), alg.String(), itoa(len(kept)),
				f3(float64(len(kept)) / float64(g.NumEdges())),
				f3(q.PC), f4(q.PQ),
			})
		}
	}
	return t
}

// F2Progressive draws the progressive recall curves: Minoan ER's
// scheduler vs the baselines at increasing budget fractions.
func F2Progressive(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	s := buildStack(w)
	total := w.Truth.CrossKBMatchingPairs(w.Collection)
	horizon := len(s.edges)

	minoan := core.NewResolver(s.m, s.edges, core.Config{}).RunBudget(0)
	curves := []struct {
		name  string
		curve eval.Curve
	}{
		{"minoan", eval.RecallCurve(truthOutcomes(minoan, w), total, 0)},
		{"weight-order", eval.RecallCurve(truthOutcomes(baseline.Execute(s.m, baseline.WeightOrder(s.edges), false, 0), w), total, 0)},
		{"density", eval.RecallCurve(truthOutcomes(baseline.Execute(s.m, baseline.DensityOrder(s.col, s.graph), false, 0), w), total, 0)},
		{"block-order", eval.RecallCurve(truthOutcomes(baseline.Execute(s.m, baseline.BlockOrder(s.col), false, 0), w), total, 0)},
		{"random", eval.RecallCurve(truthOutcomes(baseline.Execute(s.m, baseline.RandomOrder(s.col.DistinctPairs(), seed), false, 0), w), total, 0)},
	}
	t := &Table{
		ID:     "F2",
		Title:  "Progressive recall vs comparison budget (fractions of pruned-edge count)",
		Header: []string{"method", "10%", "25%", "50%", "75%", "100%", "AUC"},
	}
	for _, c := range curves {
		t.Rows = append(t.Rows, []string{
			c.name,
			f3(c.curve.At(horizon / 10)), f3(c.curve.At(horizon / 4)),
			f3(c.curve.At(horizon / 2)), f3(c.curve.At(3 * horizon / 4)),
			f3(c.curve.At(horizon)), f3(c.curve.AUC(horizon)),
		})
	}
	t.Notes = "expected shape: minoan dominates at every budget; random is the floor"
	return t
}

// F3Benefits runs the scheduler once per benefit model and reports the
// cumulative targeted benefit at budget fractions — the three
// data-quality benefits behave differently from quantity.
func F3Benefits(seed int64, n int) *Table {
	w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
	s := buildStack(w)
	horizon := len(s.edges)
	t := &Table{
		ID:     "F3",
		Title:  "Targeted benefit vs budget, per benefit model (normalized to final)",
		Header: []string{"model", "2%", "5%", "10%", "25%", "final(abs)"},
	}
	for _, model := range core.Models() {
		res := core.NewResolver(s.m, s.edges, core.Config{Benefit: model}).RunBudget(0)
		var curve eval.Curve
		cum := 0.0
		for i, step := range res.Trace {
			cum += step.Gain
			curve = append(curve, eval.CurvePoint{Comparisons: i + 1, Value: cum})
		}
		final := curve.Final()
		norm := func(k int) string {
			if final == 0 {
				return "0.000"
			}
			return f3(curve.At(k) / final)
		}
		t.Rows = append(t.Rows, []string{
			model.Name(), norm(horizon / 50), norm(horizon / 20), norm(horizon / 10),
			norm(horizon / 4), f3(final),
		})
	}
	t.Notes = "expected shape: every model realizes most of its benefit in the first budget quartile"
	return t
}

// T4NeighborEvidence measures the update phase on a center+periphery
// cloud: recall with and without neighbor-evidence discovery.
func T4NeighborEvidence(seed int64, n int) *Table {
	cfg := datagen.Config{
		Seed:        seed,
		NumEntities: n,
		KBs: []datagen.KBConfig{
			{Name: "centerA", Coverage: 1, Profile: datagen.Center()},
			{Name: "periphX", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	}
	w := mustGenerate(cfg)
	s := buildStack(w)
	t := &Table{
		ID:     "T4",
		Title:  "Neighbor evidence on somehow-similar (periphery) descriptions",
		Header: []string{"variant", "comparisons", "discovered", "matches", "recall", "precision"},
	}
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with update phase", false}, {"without update phase", true}} {
		res := core.NewResolver(s.m, s.edges, core.Config{DisableDiscovery: v.disable}).RunBudget(0)
		q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(s.m))
		t.Rows = append(t.Rows, []string{
			v.name, itoa(res.Comparisons), itoa(res.Discovered), itoa(res.Matches),
			f3(q.Recall), f3(q.Precision),
		})
	}
	t.Notes = "expected shape: the update phase strictly increases recall via discovered comparisons"
	return t
}

// F4Scalability sweeps entity count: comparisons after each stage must
// grow near-linearly, against the quadratic brute force.
func F4Scalability(seed int64, sizes []int) *Table {
	t := &Table{
		ID:     "F4",
		Title:  "Scalability with entity count",
		Header: []string{"entities", "brute", "blocked", "pruned", "recall"},
	}
	for _, n := range sizes {
		w := mustGenerate(datagen.TwoKBs(seed, n, datagen.Center(), datagen.Center()))
		s := buildStack(w)
		res := core.NewResolver(s.m, s.edges, core.Config{}).RunBudget(0)
		q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(s.m))
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(eval.BruteForceComparisons(w.Collection)),
			itoa(s.raw.TotalComparisons()), itoa(len(s.edges)),
			f3(q.Recall),
		})
	}
	t.Notes = "expected shape: pruned comparisons grow ~linearly while brute force grows quadratically"
	return t
}

// T6DirtyER resolves duplicates within a single KB (dirty ER), the
// "within sources" half of the paper's problem statement.
func T6DirtyER(seed int64, n int) *Table {
	w := mustGenerate(datagen.DirtyKB(seed, n, 2))
	s := buildStack(w)
	res := core.NewResolver(s.m, s.edges, core.Config{}).RunBudget(0)
	q := eval.EvaluateMatches(w.Collection, w.Truth, res.MatchedPairs(s.m))
	blockQ := eval.EvaluateBlocks(s.col, w.Truth)
	t := &Table{
		ID:     "T6",
		Title:  "Dirty ER within a single KB",
		Header: []string{"stage", "candidates", "PC/recall", "PQ/precision"},
		Rows: [][]string{
			{"blocking(clean)", itoa(blockQ.Candidates), f3(blockQ.PC), f4(blockQ.PQ)},
			{"resolution", itoa(res.Comparisons), f3(q.Recall), f3(q.Precision)},
		},
		Notes: "expected shape: same pipeline handles within-KB duplicates without configuration",
	}
	return t
}
