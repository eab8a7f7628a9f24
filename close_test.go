package minoaner_test

import (
	"runtime"
	"testing"
	"time"

	minoaner "repro"
)

// TestCloseAfterBudgetStopLeavesNoGoroutines: a parallel session whose
// last Resume stopped on its budget, across an ingest wave, leaves no
// goroutine behind once the pipeline is closed. Budgeted legs run no
// scoring pre-pass, and a draining leg's pre-pass workers exit before
// Resume returns, so nothing of the matching stage may outlive it.
func TestCloseAfterBudgetStopLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	all := streamDescriptions(hardSessionWorld(t, 281, 140))
	cfg := minoaner.Defaults()
	cfg.Workers = 4
	p := minoaner.New(cfg)
	if err := p.Add(all[:len(all)/2]); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(all[len(all)/2:]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Resume(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Comparisons != 14 {
		t.Fatalf("%d comparisons, want the two legs' budgets (14)", res.Stats.Comparisons)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, want at most %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
