package minoaner_test

import (
	"fmt"
	"runtime"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
)

// rebuildRuleDigests pins, per LOD-world seed, the result of a stream
// that spends part of its budget between ingest waves. Every wave —
// ingest or eviction — rebuilds the resolver by one rule: Retract
// replays the session's live merges from singletons over the new
// matcher and edges, and a failed comparison is not carried over, so a
// failed pair the new pruning retains runs again as a fresh pair. On a
// session with no history the rule equals a fresh resolver; on this
// stream the digests fail if a wave ever carries more than the merges
// (boosts, failed pairs, rechecks) or fewer. A change that is meant to
// move the rule updates them with the reason.
var rebuildRuleDigests = map[int64]string{
	1: "2880fdd3d2b3721c0f1be2b95c22e3d693fab017d9652569beb0176debd25bc9",
	2: "c3ab35c054ba85410435e194939bfd70a3905b556e6e9b455b165283e4e3156d",
	3: "f213d77f12ea884934229d8b9f38f60ceb7c4db29a635dbb6615f1b10a782763",
}

// TestIngestWaveRebuildRule drives the stream shape of a live service:
// a half-loaded LOD world, then 16-description ingest waves, each
// preceded by a partial Resume leg, then a final Resume to exhaustion.
func TestIngestWaveRebuildRule(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 float bits; GOARCH=%s fuses differently", runtime.GOARCH)
	}
	for seed, want := range rebuildRuleDigests {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, err := datagen.Generate(datagen.LODCloud(seed, 120))
			if err != nil {
				t.Fatal(err)
			}
			all := streamDescriptions(w)
			p := minoaner.New(minoaner.Defaults())
			next := len(all) / 2
			if err := p.Add(all[:next]); err != nil {
				t.Fatal(err)
			}
			s, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			for next < len(all) {
				if _, err := s.Resume(40); err != nil {
					t.Fatal(err)
				}
				hi := min(next+16, len(all))
				if err := s.Ingest(all[next:hi]); err != nil {
					t.Fatal(err)
				}
				next = hi
			}
			out, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(out); got != want {
				t.Errorf("digest %s, want %s (%d matches, %d comparisons)", got, want, len(out.Matches), out.Stats.Comparisons)
			}
		})
	}
}
