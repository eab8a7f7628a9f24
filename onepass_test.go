package minoaner_test

import (
	"testing"

	minoaner "repro"
	"repro/internal/pipeline"
)

// passCounter counts the engine passes a session asks for. One Ingest
// or Evict call is one Stream → Build → Prune pass (pinned by
// TestOnePassPerCall in internal/pipeline), so the sum is the number of
// front-end passes a wave cost.
type passCounter struct {
	pipeline.Engine
	ingests, evicts int
}

func (c *passCounter) Ingest(st *pipeline.State) error {
	c.ingests++
	return c.Engine.Ingest(st)
}

func (c *passCounter) Evict(st *pipeline.State) error {
	c.evicts++
	return c.Engine.Evict(st)
}

// TestOnePassPerWave: every commit wave — arrivals only, departures
// only, or a TTL ingest whose batch pushes an older one out of the
// window — costs exactly one front-end pass, attributed to Evict when
// anything departed; a wave that changes nothing costs none.
func TestOnePassPerWave(t *testing.T) {
	named := func(kb, uri, name string) minoaner.Description {
		return minoaner.Description{KB: kb, URI: uri,
			Attrs: []minoaner.Attribute{{Predicate: "name", Value: name}}}
	}
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	cfg.TTL = 2
	cfg.CompactionThreshold = -1 // a compaction epoch rebuilds on top of the wave's pass
	p := minoaner.New(cfg)
	if err := p.Add([]minoaner.Description{
		named("a", "u1", "alpha one"), named("a", "u2", "beta two"),
		named("b", "v1", "alpha one"), named("b", "v2", "beta two"),
	}); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	var c *passCounter
	s.WrapEngine(func(e pipeline.Engine) pipeline.Engine {
		c = &passCounter{Engine: e}
		return c
	})

	waves := []struct {
		name            string
		run             func() error
		ingests, evicts int
	}{
		{"ingest", func() error {
			return s.Ingest([]minoaner.Description{named("a", "u3", "gamma three"), named("b", "v3", "gamma three")})
		}, 1, 0},
		{"evict", func() error { return s.Evict([]minoaner.Ref{{KB: "a", URI: "u3"}}) }, 0, 1},
		{"empty ingest", func() error { return s.Ingest(nil) }, 0, 0},
		// The second batch since Start: batch 0 — Start's corpus —
		// slides out of the two-batch window in the same wave.
		{"ingest with TTL expiry", func() error {
			return s.Ingest([]minoaner.Description{named("a", "u4", "delta four"), named("b", "v4", "delta four")})
		}, 0, 1},
	}
	for _, wv := range waves {
		c.ingests, c.evicts = 0, 0
		before := s.Timings()
		if err := wv.run(); err != nil {
			t.Fatalf("%s: %v", wv.name, err)
		}
		if c.ingests != wv.ingests || c.evicts != wv.evicts {
			t.Fatalf("%s wave made %d Ingest and %d Evict passes, want %d and %d",
				wv.name, c.ingests, c.evicts, wv.ingests, wv.evicts)
		}
		after := s.Timings()
		if (after.Ingest > before.Ingest) != (wv.ingests > 0) || (after.Evict > before.Evict) != (wv.evicts > 0) {
			t.Fatalf("%s wave moved Timings.Ingest by %v and Timings.Evict by %v",
				wv.name, after.Ingest-before.Ingest, after.Evict-before.Evict)
		}
	}
	if got := s.Snapshot().Stats().Descriptions; got != 3 {
		t.Fatalf("TTL window holds %d descriptions, want the 3 survivors of the last two batches", got)
	}
}
