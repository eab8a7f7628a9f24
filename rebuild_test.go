package minoaner_test

import (
	"fmt"
	"runtime"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
)

// rebuildRuleDigests pins, per LOD-world seed, the result of a stream
// that spends part of its budget between ingest waves. After an
// ingest-only wave the session reseeds its resolver — clusters, boosts
// and queued discoveries carry over — rather than replaying the
// surviving trace from singletons as an eviction wave does. The two
// rules agree on a session with no history but not on this stream, so
// the digests fail if an ingest wave ever rebuilds by replay. A change
// that is meant to move the rule updates them with the reason.
var rebuildRuleDigests = map[int64]string{
	1: "85f4c5fef48ad82daeb349b81a8daf5c45866f13a5507b80fed963b329125717",
	2: "9cec7d1721a8697811a7875c931d43fe33ad8ed91988db2d8b3ed08585cbd370",
	3: "374bc1ccc4a73acdd57577f84932dda81f7d97e088a90afa708cd23081a98fc1",
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
			p := minoaner.New(minoaner.EnvDefaults())
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
