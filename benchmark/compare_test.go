package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{name: "run_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "descs_per_cpu_s", better: "higher", bound: 0.10}
	quality := metricDef{name: "f1", better: "higher", bound: 0.05, absolute: 0.005}
	tests := []struct {
		name      string
		d         metricDef
		base, new side
		want      verdict
	}{
		{"unchanged", lower, side{median: 2, spread: 0.02}, side{median: 2, spread: 0.02}, verdictOK},
		{"slower within the bound", lower, side{median: 2, spread: 0.02}, side{median: 2.19, spread: 0.02}, verdictOK},
		{"slower beyond the bound", lower, side{median: 2, spread: 0.02}, side{median: 2.21, spread: 0.02}, verdictRegressed},
		{"faster", lower, side{median: 2, spread: 0.02}, side{median: 1, spread: 0.02}, verdictOK},
		{"noisy base hides everything", lower, side{median: 2, spread: 0.11}, side{median: 3, spread: 0.02}, verdictUnresolved},
		{"noisy new side too", lower, side{median: 2, spread: 0.02}, side{median: 2, spread: 0.5}, verdictUnresolved},
		{"higher is better: drop beyond the bound", higher, side{median: 100, spread: 0.01}, side{median: 89, spread: 0.01}, verdictRegressed},
		{"higher is better: rise", higher, side{median: 100, spread: 0.01}, side{median: 150, spread: 0.01}, verdictOK},
		{"absolute bound: small loss", quality, side{median: 0.65}, side{median: 0.646}, verdictOK},
		{"absolute bound: real loss", quality, side{median: 0.65}, side{median: 0.644}, verdictRegressed},
		{"absolute bound ignores spread", quality, side{median: 0.65, spread: 0.9}, side{median: 0.65, spread: 0.9}, verdictOK},
	}
	for _, tc := range tests {
		if _, got := judge(tc.d, tc.base, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesPoolsRuns(t *testing.T) {
	file := func(runS ...float64) *resultFile {
		f := &resultFile{}
		for i, v := range runS {
			f.Runs = append(f.Runs, &runResult{Workload: "batch_lod", Seed: int64(i), Metrics: map[string]measure{
				"run_s":          {Value: v, Unit: "s", summary: summary{Median: v, Q1: v * 0.7, Q3: v * 1.3, N: 9}},
				"rdf.decode_s":   {Value: 1, Unit: "s"},
				"no_such_metric": {Value: 1},
			}})
		}
		return f
	}
	// One run a side: the spread falls back to the samples inside the
	// run (60 % here), so nothing can be resolved.
	rows := compareFiles(file(1.0), file(1.0))
	if len(rows) != 1 || rows[0].metric != "run_s" || rows[0].verdict != verdictUnresolved {
		t.Fatalf("single runs: %+v, want one unresolved run_s row (per-layer and unknown metrics are not judged)", rows)
	}
	// Enough runs: the spread is taken across them.
	rows = compareFiles(file(1.00, 1.01, 0.99, 1.00, 1.02), file(1.30, 1.31, 1.29, 1.30, 1.32))
	if len(rows) != 1 || rows[0].verdict != verdictRegressed || rows[0].base.runs != 5 {
		t.Fatalf("five runs: %+v, want one regressed row", rows)
	}
	rows = compareFiles(file(1.00, 1.01, 0.99, 1.00, 1.02), file(1.03, 1.01, 0.99, 1.00, 1.02))
	if rows[0].verdict != verdictOK {
		t.Fatalf("same medians: %+v, want ok", rows[0])
	}
}
