package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestRunBudgetContextCancel pins the resolver's cancellation contract
// on the serial loop and with the scoring width set: a dead context
// stops the run at the next comparison boundary — a pre-cancelled
// draining leg runs no comparison — the
// partial result is the same prefix an equal budget would have
// produced, and the queue stays resumable.
func TestRunBudgetContextCancel(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(71, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	whole := NewResolver(m, edges, Config{}).RunBudget(0)

	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Pre-cancelled: zero comparisons, nothing consumed.
			r := NewResolver(m, edges, Config{Workers: workers})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res := r.RunBudgetContext(ctx, 0)
			if res.Comparisons != 0 || len(res.Trace) != 0 {
				t.Fatalf("cancelled run executed %d comparisons", res.Comparisons)
			}
			if r.Pending() == 0 {
				t.Fatal("cancelled run drained the queue")
			}

			// An interrupted run resumes: cancelled leg + live drain
			// equals one uninterrupted run, trace for trace.
			if got := r.RunBudget(40); got.Comparisons != 40 {
				t.Fatalf("budget leg ran %d comparisons, want 40", got.Comparisons)
			}
			res = r.RunBudgetContext(ctx, 0) // dead ctx again: a no-op leg
			if res.Comparisons != 0 {
				t.Fatalf("second cancelled leg executed %d comparisons", res.Comparisons)
			}
			rest := r.RunBudgetContext(context.Background(), 0)

			if 40+rest.Comparisons != whole.Comparisons {
				t.Fatalf("legs total %d comparisons, whole run %d", 40+rest.Comparisons, whole.Comparisons)
			}
			for i, s := range rest.Trace {
				if whole.Trace[40+i] != s {
					t.Fatalf("trace diverges at resumed step %d", i)
				}
			}
		})
	}
}

// TestResolverTimings sanity-checks the per-stage counters: a drained
// run spends time in schedule, match, and update, the counters
// accumulate monotonically across legs, and the three stages partition
// each call — their sum never exceeds the wall time around it and, on
// either engine, covers most of it. Only the upper bound is exact; the
// lower one leaves room for the call and return around the loop.
func TestResolverTimings(t *testing.T) {
	w, err := datagen.Generate(datagen.TwoKBs(73, 150, datagen.Center(), datagen.Center()))
	if err != nil {
		t.Fatal(err)
	}
	m, edges := pipeline(t, w)
	r := NewResolver(m, edges, Config{})
	if tm := r.Timings(); tm.Schedule != 0 || tm.Match != 0 || tm.Update != 0 {
		t.Fatalf("fresh resolver has nonzero timings %+v", tm)
	}
	r.RunBudget(50)
	first := r.Timings()
	if first.Schedule <= 0 || first.Match <= 0 {
		t.Fatalf("after 50 comparisons, timings %+v", first)
	}
	r.RunBudget(0)
	second := r.Timings()
	if second.Schedule < first.Schedule || second.Match < first.Match || second.Update < first.Update {
		t.Fatalf("timings went backwards: %+v then %+v", first, second)
	}
	if second.Update <= 0 {
		t.Error("drained run never spent time in update")
	}
	for _, workers := range []int{0, 4} {
		r := NewResolver(m, edges, Config{Workers: workers})
		for _, budget := range []int{50, 0} {
			before := r.Timings()
			start := time.Now()
			r.RunBudget(budget)
			wall := time.Since(start)
			after := r.Timings()
			sum := after.Schedule - before.Schedule + after.Match - before.Match + after.Update - before.Update
			if sum > wall || sum < wall/2 {
				t.Errorf("workers=%d budget=%d: stages sum to %v of a %v call, want within [wall/2, wall]",
					workers, budget, sum, wall)
			}
		}
	}
}
