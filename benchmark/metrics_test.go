package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// contractFile mirrors BENCHMARK.json, the acceptance driver's view of
// this benchmark.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func gatedMetrics(defs []metricDef, bounded bool) []contractMetric {
	var out []contractMetric
	for _, d := range defs {
		if !d.gated {
			continue
		}
		m := contractMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if bounded {
			b := d.acrossSeeds
			m.Bound = &b
		}
		out = append(out, m)
	}
	return out
}

// BENCHMARK.json must say what the code does: the same workloads and
// reasons, and exactly the metrics every workload reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contractFile
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	want := contractFile{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: got.RunSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	want.EndToEnd = gatedMetrics(endToEnd, true)
	want.PerLayer = gatedMetrics(perLayer, false)
	if !reflect.DeepEqual(got, want) {
		expected, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go, layers.go and workloads.go; they say:\n%s", expected)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
}

// The tables themselves must stay inside the contract's limits.
func TestTablesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q does not fit the contract", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: better is %q", d.name, d.better)
			}
			if d.bound < 0 || d.bound > 0.25 || d.acrossSeeds < 0 || d.acrossSeeds > 0.25 {
				t.Errorf("metric %s: bounds %v / %v across seeds outside 0..0.25", d.name, d.bound, d.acrossSeeds)
			}
			if d.gated && d.workloads != nil {
				t.Errorf("metric %s is gated but not reported by every workload", d.name)
			}
			for _, w := range d.workloads {
				if _, ok := findWorkload(w); !ok {
					t.Errorf("metric %s names unknown workload %q", d.name, w)
				}
			}
			if d.name == "setup_s" {
				hasSetup = d.gated && d.unit == "s" && d.better == "lower"
			}
		}
	}
	for _, d := range endToEnd {
		if d.gated != (d.acrossSeeds > 0) {
			t.Errorf("end-to-end metric %s: gated %v but bound across seeds %v", d.name, d.gated, d.acrossSeeds)
		}
		if d.bound == 0 && d.absolute == 0 {
			t.Errorf("end-to-end metric %s has no bound for compare", d.name)
		}
	}
	for _, d := range perLayer {
		if d.bound != 0 || d.absolute != 0 || d.acrossSeeds != 0 {
			t.Errorf("per-layer metric %s carries a bound; per-layer metrics have none", d.name)
		}
	}
	if !hasSetup {
		t.Error("setup_s must be a gated end-to-end metric in seconds, lower is better")
	}
	if n := len(gatedMetrics(endToEnd, true)); n < 1 || n > 16 {
		t.Errorf("%d gated end-to-end metrics, want 1..16", n)
	}
	if n := len(gatedMetrics(perLayer, false)); n < 1 || n > 128 {
		t.Errorf("%d gated per-layer metrics, want 1..128", n)
	}
}

func TestQuickShrinksEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		q := w.quick()
		if q.entities > 150 || q.minIters != 1 || q.f1Floor != 0 || q.name != w.name || q.durable != w.durable || q.served != w.served {
			t.Errorf("quick %s = %+v", w.name, q)
		}
	}
}
