package minoaner_test

import (
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/pipeline"
	"repro/internal/tokenize"
)

// passCounter counts the front-end passes a session makes: every pass
// is one pipeline.Run — TokenBlocking → Purge → Filter → Build → Prune
// — and calls TokenBlocking once. Which Timings counter grew tells what
// a wave's pass was charged to.
type passCounter struct {
	pipeline.Engine
	passes int
}

func (c *passCounter) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	c.passes++
	return c.Engine.TokenBlocking(src, opts)
}

// TestOnePassPerWave: every commit wave — arrivals only, departures
// only, a TTL ingest whose batch pushes an older one out of the window,
// or a batch that only merges into a description the session holds —
// costs exactly one front-end pass, charged to Timings.Evict when
// anything departed and to Timings.Ingest otherwise; a wave that
// changes nothing costs none. A departure wave compacts before its
// pass, so the pass runs over the compacted collection, nothing
// rebuilds on top of it, and no tombstone is left.
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
		c.passes = 0
		before := s.Timings()
		if err := wv.run(); err != nil {
			t.Fatalf("%s: %v", wv.name, err)
		}
		if want := wv.ingests + wv.evicts; c.passes != want {
			t.Fatalf("%s wave made %d passes, want %d", wv.name, c.passes, want)
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
	if c.passes != 1 {
		t.Fatalf("recovery made %d passes, want exactly one", c.passes)
	}
	if n := s.Tombstones(); n != 0 {
		t.Fatalf("the recovered session's collection holds %d tombstones", n)
	}
	if tim := s.Timings(); tim.FrontEnd <= 0 || tim.Ingest != 0 || tim.Evict != 0 {
		t.Fatalf("recovered Timings %+v, want the one pass in FrontEnd and no wave time", tim)
	}
}
