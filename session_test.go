package minoaner_test

import (
	"fmt"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// The shared test helpers live in the package's own tests
// (rule_test.go).
var (
	hardSessionWorld   = minoaner.HardSessionWorld
	streamDescriptions = minoaner.StreamDescriptions
	sameResult         = minoaner.SameResult
)

func loadSession(t *testing.T, w *datagen.World, cfg minoaner.Config) *minoaner.Session {
	t.Helper()
	p := minoaner.New(cfg)
	for _, name := range []string{"alpha", "betaKB"} {
		doc, err := rdf.WriteString(w.Triples(name))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshot is Session.Snapshot for a session the test expects to read.
func snapshot(t *testing.T, s *minoaner.Session) *minoaner.Snapshot {
	t.Helper()
	sn, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sn
}

// TestSessionLegsConcatenate pins the documented Session property:
// successive Resume(k) legs are one pay-as-you-go run, so after legs
// k1..kn the cumulative result equals a single ResolveBudget(k1+…+kn)
// — rechecks and neighbor-evidence discoveries included, even when
// the evidence arises in one leg and the re-examination runs in a
// later one. Swept across worker counts: the parallel matching engine
// must keep the same leg semantics.
func TestSessionLegsConcatenate(t *testing.T) {
	w := hardSessionWorld(t, 65, 150)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.Workers = workers

			legs := []int{120, 1, 7, 200}
			s := loadSession(t, w, cfg)
			var cum *minoaner.Result
			var err error
			sum := 0
			for _, leg := range legs {
				if cum, err = s.Resume(leg); err != nil {
					t.Fatal(err)
				}
				sum += leg
				oneShot := loadSession(t, w, cfg)
				whole, err := oneShot.Resume(sum)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("after leg sum %d", sum), whole, cum)
			}
			if cum.Stats.Comparisons != sum {
				t.Fatalf("legs executed %d comparisons, budgets sum to %d", cum.Stats.Comparisons, sum)
			}

			// The property must cover the hard step kinds, and the
			// evidence must cross a leg boundary: discoveries or
			// rechecks confirmed after the first leg's budget.
			if cum.Stats.DiscoveredCmps == 0 {
				t.Error("no discovered comparisons executed — workload too easy for this test")
			}
			lateDiscovered, rechecked := 0, 0
			for i, m := range cum.Matches {
				if m.Discovered && i >= legs[0] {
					lateDiscovered++
				}
				if m.Rechecked {
					rechecked++
				}
			}
			if lateDiscovered == 0 && rechecked == 0 {
				t.Error("no discovered or rechecked matches beyond the first leg")
			}

			// Draining the session equals one unbounded run.
			final, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			full := loadSession(t, w, cfg)
			whole, err := full.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "drained session", whole, final)
		})
	}
}
