package minoaner_test

import (
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/tokenize"
)

// passCounter counts the engine passes a session asks for. One Ingest
// or Evict call is one TokenBlocking → Purge → Filter → Build → Prune
// pass (pinned by TestOnePassPerCall in internal/pipeline), and so is
// every pipeline.Start over the wrapped engine — Start's pass is the
// only one that calls TokenBlocking on the wrapper itself — so the sum
// is the number of front-end passes a wave, or a recovery, cost.
type passCounter struct {
	pipeline.Engine
	starts, ingests, evicts int
}

func (c *passCounter) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	c.starts++
	return c.Engine.TokenBlocking(src, opts)
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
// only, a TTL ingest whose batch pushes an older one out of the window,
// or a batch that only merges into a description the session holds —
// costs exactly one front-end pass, attributed to Evict when anything
// departed; a wave that changes nothing costs none. A departure wave
// compacts before its pass, so the pass runs over the compacted
// collection, nothing rebuilds on top of it, and no tombstone is left.
func TestOnePassPerWave(t *testing.T) {
	named := func(kb, uri, name string) minoaner.Description {
		return minoaner.Description{KB: kb, URI: uri,
			Attrs: []minoaner.Attribute{{Predicate: "name", Value: name}}}
	}
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	cfg.TTL = 2
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
		{"evict two", func() error {
			return s.Evict([]minoaner.Ref{{KB: "b", URI: "v3"}, {KB: "a", URI: "u4"}})
		}, 0, 1},
		// Every description merges into v4, the survivor: no id opens,
		// yet the batch arrived — the fold judges that by its input.
		{"merge-only ingest", func() error {
			return s.Ingest([]minoaner.Description{named("b", "v4", "late note")})
		}, 1, 0},
	}
	for _, wv := range waves {
		c.starts, c.ingests, c.evicts = 0, 0, 0
		before := s.Timings()
		if err := wv.run(); err != nil {
			t.Fatalf("%s: %v", wv.name, err)
		}
		if c.starts != 0 || c.ingests != wv.ingests || c.evicts != wv.evicts {
			t.Fatalf("%s wave made %d Ingest, %d Evict and %d rebuild passes, want %d, %d and 0",
				wv.name, c.ingests, c.evicts, c.starts, wv.ingests, wv.evicts)
		}
		if n := s.Tombstones(); n != 0 {
			t.Fatalf("%s wave left %d tombstones", wv.name, n)
		}
		after := s.Timings()
		if (after.Ingest > before.Ingest) != (wv.ingests > 0) || (after.Evict > before.Evict) != (wv.evicts > 0) {
			t.Fatalf("%s wave moved Timings.Ingest by %v and Timings.Evict by %v",
				wv.name, after.Ingest-before.Ingest, after.Evict-before.Evict)
		}
	}
	if got := s.Snapshot().Stats().Descriptions; got != 1 {
		t.Fatalf("session holds %d descriptions, want v4, the one survivor", got)
	}
}

// TestOpenMakesOnePass: recovery folds the log into the collection and
// builds the session once, so a log of many streaming records —
// arrivals and evictions — costs one compaction and one front-end
// pass, all of it Timings.FrontEnd.
func TestOpenMakesOnePass(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	late := func(uri string) walOp {
		return walOp{ingest: []minoaner.Description{{KB: "alpha", URI: uri,
			Attrs: []minoaner.Attribute{{Predicate: "name", Value: "late " + uri}}}}}
	}
	ops := append(recoveryOps(t, 8), late("http://late/1"), late("http://late/2"))
	if streaming := len(ops) - 2; streaming < 8 { // ops[0] loads, ops[1] starts
		t.Fatalf("workload has %d streaming records, want at least 8", streaming)
	}
	dir := t.TempDir()
	rec, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec.SuppressRotation() // one record per op
	for _, op := range ops {
		applyOp(t, rec, op)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	var c passCounter
	p, err := minoaner.OpenWrapped(dir, cfg, func(e pipeline.Engine) pipeline.Engine {
		c.Engine = e
		return &c
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := p.Current()
	if c.starts != 1 || c.ingests != 0 || c.evicts != 0 {
		t.Fatalf("recovery made %d Start, %d Ingest and %d Evict passes, want exactly one Start",
			c.starts, c.ingests, c.evicts)
	}
	if n := s.Tombstones(); n != 0 {
		t.Fatalf("the recovered session's collection holds %d tombstones", n)
	}
	if tim := s.Timings(); tim.FrontEnd <= 0 || tim.Ingest != 0 || tim.Evict != 0 {
		t.Fatalf("recovered Timings %+v, want the one pass in FrontEnd and no wave time", tim)
	}
}
