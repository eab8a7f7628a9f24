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
	1: "d2ac190debc1161b1ee785d2e648f232e34158c1833f71461ee3daeaa1c53d4b",
	2: "55a17e4800b2d7a15154364841811298e1090da30ed6d07c829971f2a479ed71",
	3: "197c4e485bb91981affb23df8595744007d7307d7238fd1db71f8104ebd29b7e",
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
