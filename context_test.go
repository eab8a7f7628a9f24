package minoaner_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	minoaner "repro"
)

// ResumeContext honors cancellation between comparisons and returns
// the cumulative result so far alongside ctx.Err(). Crucially, the
// comparisons already committed stay committed: a later Resume
// continues the same pay-as-you-go run, so an interrupted leg plus a
// drain leg still equals one uninterrupted run — the leg-concatenation
// invariant the rest of the session suite pins, now with cancellation
// as a leg boundary.

func TestResumeContextPreCancelled(t *testing.T) {
	w := hardSessionWorld(t, 51, 60)
	s := loadSession(t, w, minoaner.Defaults())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.ResumeContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled resume returned no result")
	}
	if res.Stats.Comparisons != 0 {
		t.Fatalf("pre-cancelled resume executed %d comparisons", res.Stats.Comparisons)
	}
	if s.Pending() == 0 {
		t.Fatal("pre-cancelled resume drained the queue")
	}
}

func TestCancelledLegThenDrainEqualsWholeRun(t *testing.T) {
	w := hardSessionWorld(t, 53, 100)

	whole, err := loadSession(t, w, minoaner.Defaults()).Resume(0)
	if err != nil {
		t.Fatal(err)
	}

	s := loadSession(t, w, minoaner.Defaults())
	// A budget leg, then a cancelled leg (deterministically: cancelled
	// before it starts), then a drain — cancellation must behave as a
	// clean leg boundary, leaving the queue resumable.
	if _, err := s.Resume(25); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ResumeContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leg: got %v, want context.Canceled", err)
	}
	final, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cancel-then-drain", whole, final)
}

// TestResolveContext covers the one-shot entry point: cancellation
// surfaces, and a fresh pipeline resolves identically to ResolveBudget
// when the context stays live.
func TestResolveContext(t *testing.T) {
	w := hardSessionWorld(t, 59, 60)

	load := func() *minoaner.Pipeline {
		p := minoaner.New(minoaner.Defaults())
		for _, name := range []string{"alpha", "betaKB"} {
			if err := p.LoadKB(name, strings.NewReader(mustDoc(t, w, name))); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}

	want, err := load().ResolveBudget(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := load().ResolveContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resolve-context", want, got)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := load().ResolveContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolve: got %v, want context.Canceled", err)
	}
	if res == nil || res.Stats.Comparisons != 0 {
		t.Fatalf("cancelled resolve still executed comparisons: %+v", res)
	}
}

// TestTimingsAccumulate sanity-checks the per-stage counters the
// status endpoint reports: after real work, the resolve and front-end
// clocks have advanced, and successive reads are monotone.
func TestTimingsAccumulate(t *testing.T) {
	w := hardSessionWorld(t, 61, 80)
	s := loadSession(t, w, minoaner.Defaults())
	if s.Timings().FrontEnd <= 0 {
		t.Error("front-end timing is zero after Start")
	}
	if _, err := s.Resume(30); err != nil {
		t.Fatal(err)
	}
	first := s.Timings()
	if first.Resolve <= 0 {
		t.Error("resolve timing is zero after a budget leg")
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
	second := s.Timings()
	if second.Resolve < first.Resolve {
		t.Errorf("resolve timing went backwards: %v then %v", first.Resolve, second.Resolve)
	}
	if second.Schedule+second.Match+second.Update <= 0 {
		t.Error("resolver stage timings all zero after a drained run")
	}
	if err := s.Ingest([]minoaner.Description{{KB: "alpha", URI: "http://timed"}}); err != nil {
		t.Fatal(err)
	}
	if s.Timings().Ingest <= 0 {
		t.Error("ingest timing is zero after an ingest")
	}
}
