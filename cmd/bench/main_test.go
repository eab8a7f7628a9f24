package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	// Smoke-test the cheapest experiments through the CLI path.
	for _, id := range []string{"T2", "t6", "F4"} {
		if err := run([]string{"-id", id, "-seed", "4"}); err != nil {
			t.Fatalf("-id %s: %v", id, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-id", "Z9"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Only the paper's tables have ids, and there is no -ablations.
	for _, id := range []string{"A1", "T5"} {
		if err := run([]string{"-id", id}); err == nil {
			t.Errorf("-id %s accepted", id)
		}
	}
	if err := run([]string{"-ablations"}); err == nil {
		t.Error("-ablations accepted")
	}
	if err := run([]string{"-scale", "0"}); err == nil {
		t.Error("zero scale accepted")
	}
}
