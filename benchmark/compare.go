package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdict is compare's judgement of one metric on one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved" // the spread is wider than the bound: no claim either way
)

// side is one result file's view of a metric on a workload: the median
// over its runs, and how far those runs (or, with too few runs, the
// samples inside one) scatter.
type side struct {
	median, spread float64
	runs           int
}

// row is one line of compare's table.
type row struct {
	workload, metric, unit string
	base, new              side
	delta                  float64 // how much worse new is than base, as a share of base (negative = better)
	bound                  float64
	absolute               bool
	verdict                verdict
}

// minRunsForSpread is how many runs a side needs before its spread is
// taken across runs; below it, the samples inside the runs stand in.
const minRunsForSpread = 4

// sides pools a result file by workload and metric. Traced and untraced
// runs report disjoint metrics, so they pool together.
func sides(f *resultFile) map[[2]string]side {
	values := make(map[[2]string][]float64)
	inRun := make(map[[2]string]float64)
	for _, r := range f.Runs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			values[k] = append(values[k], m.Value)
			inRun[k] = max(inRun[k], m.summary.spread())
		}
	}
	out := make(map[[2]string]side, len(values))
	for k, vs := range values {
		s := side{median: median(vs), runs: len(vs), spread: inRun[k]}
		if len(vs) >= minRunsForSpread {
			s.spread = summarize(vs).spread()
		}
		out[k] = s
	}
	return out
}

// judge compares two pooled sides of one metric.
func judge(d metricDef, base, new side) (delta float64, v verdict) {
	worse := new.median - base.median
	if d.better == "higher" {
		worse = -worse
	}
	if d.absolute > 0 {
		// Deterministic ratios are held to a fixed amount, and have no
		// spread to hide behind.
		if worse > d.absolute {
			return worse, verdictRegressed
		}
		return worse, verdictOK
	}
	if base.median != 0 {
		delta = worse / math.Abs(base.median)
	}
	switch {
	case max(base.spread, new.spread) > d.bound:
		return delta, verdictUnresolved
	case delta > d.bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

// compareFiles judges every bounded metric × workload present in both
// files; per-layer metrics carry no bound and are not judged.
func compareFiles(base, new *resultFile) []row {
	bs, ns := sides(base), sides(new)
	var rows []row
	for k, b := range bs {
		n, ok := ns[k]
		d, known := findMetric(k[1])
		if !ok || !known || (d.bound == 0 && d.absolute == 0) {
			continue
		}
		r := row{workload: k[0], metric: k[1], unit: d.unit, base: b, new: n, bound: d.bound}
		if d.absolute > 0 {
			r.bound, r.absolute = d.absolute, true
		}
		r.delta, r.verdict = judge(d, b, n)
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-15s %-22s %-6s %13s %13s %9s %9s %8s  %s\n",
		"workload", "metric", "unit", "base", "new", "worse by", "bound", "spread", "verdict")
	for _, r := range rows {
		delta, bound := fmt.Sprintf("%+.1f%%", r.delta*100), fmt.Sprintf("%.0f%%", r.bound*100)
		if r.absolute {
			delta, bound = fmt.Sprintf("%+.4f", r.delta), fmt.Sprintf("%.3g", r.bound)
		}
		fmt.Fprintf(w, "%-15s %-22s %-6s %13.6g %13.6g %9s %9s %7.1f%%  %s\n",
			r.workload, r.metric, r.unit, r.base.median, r.new.median, delta, bound,
			max(r.base.spread, r.new.spread)*100, r.verdict)
	}
}

// compareMain implements `benchmark compare base.json new.json`: one
// row per metric × workload — base, new, how much worse, bound, verdict
// — and a non-zero exit if anything regressed or could not be resolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.json new.json")
		return 2
	}
	var base, new resultFile
	for i, f := range []*resultFile{&base, &new} {
		if err := readJSON(args[i], f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	fmt.Printf("base: commit %s seed %d runs %d    new: commit %s seed %d runs %d\n",
		base.Meta.Commit, base.Meta.Seed, len(base.Runs), new.Meta.Commit, new.Meta.Seed, len(new.Runs))
	rows := compareFiles(&base, &new)
	printRows(os.Stdout, rows)
	bad := 0
	for _, r := range rows {
		if r.verdict != verdictOK {
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("%d of %d not ok\n", bad, len(rows))
		return 1
	}
	fmt.Printf("all %d ok\n", len(rows))
	return 0
}
