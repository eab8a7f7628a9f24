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
// — and calls TokenBlocking once.
type passCounter struct {
	pipeline.Engine
	passes int
}

func (c *passCounter) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	c.passes++
	return c.Engine.TokenBlocking(src, opts)
}

// TestOnePassPerWave: a mutation — arrivals, departures, a TTL ingest
// whose batch pushes an older one out of the window, a batch that only
// merges into a description the session holds, a post-Start Add —
// makes no pass and leaves Timings.FrontEnd alone. The next read —
// Pending, Gauges, Snapshot or Resume — makes exactly one pass, however
// many mutations came before it, charged to Timings.FrontEnd; a read
// with nothing folded since the last pass makes none. The pass compacts
// first, so after the read no tombstone is left.
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

	type mutation struct {
		name string
		run  func() error
	}
	reads := map[string]func() error{
		"Pending":  func() error { s.Pending(); return nil },
		"Gauges":   func() error { s.Gauges(); return nil },
		"Snapshot": func() error { _, err := s.Snapshot(); return err },
		"Resume":   func() error { _, err := s.Resume(0); return err },
	}
	waves := []struct {
		muts   []mutation
		read   string
		passes int
	}{
		{[]mutation{{"ingest", func() error {
			return s.Ingest([]minoaner.Description{named("a", "u3", "gamma three"), named("b", "v3", "gamma three")})
		}}}, "Pending", 1},
		{[]mutation{{"evict", func() error { return s.Evict([]minoaner.Ref{{KB: "a", URI: "u3"}}) }}}, "Gauges", 1},
		{[]mutation{{"empty ingest", func() error { return s.Ingest(nil) }}}, "Snapshot", 0},
		{nil, "Resume", 0},
		{[]mutation{
			// The second batch since Start: batch 0 — Start's corpus —
			// slides out of the two-batch window in the same fold.
			{"ingest with TTL expiry", func() error {
				return s.Ingest([]minoaner.Description{named("a", "u4", "delta four"), named("b", "v4", "delta four")})
			}},
			{"evict two", func() error {
				return s.Evict([]minoaner.Ref{{KB: "b", URI: "v3"}, {KB: "a", URI: "u4"}})
			}},
			// Every description merges into v4, the survivor: no id
			// opens, yet the batch arrived — the fold judges that by its
			// input.
			{"merge-only ingest", func() error {
				return s.Ingest([]minoaner.Description{named("b", "v4", "late note")})
			}},
		}, "Resume", 1},
		// A fourth batch: v4, of batch 2, slides out of the window.
		{[]mutation{{"post-Start Add", func() error {
			return p.Add([]minoaner.Description{named("a", "u5", "epsilon five")})
		}}}, "Pending", 1},
	}
	for _, wv := range waves {
		for _, m := range wv.muts {
			c.passes = 0
			before := s.Timings().FrontEnd
			if err := m.run(); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if c.passes != 0 || s.Timings().FrontEnd != before {
				t.Fatalf("%s made %d passes and moved Timings.FrontEnd by %v, want none",
					m.name, c.passes, s.Timings().FrontEnd-before)
			}
		}
		c.passes = 0
		before := s.Timings().FrontEnd
		if err := reads[wv.read](); err != nil {
			t.Fatalf("%s after %d mutations: %v", wv.read, len(wv.muts), err)
		}
		if c.passes != wv.passes {
			t.Fatalf("%s after %d mutations made %d passes, want %d", wv.read, len(wv.muts), c.passes, wv.passes)
		}
		if grew := s.Timings().FrontEnd > before; grew != (wv.passes > 0) {
			t.Fatalf("%s after %d mutations moved Timings.FrontEnd by %v", wv.read, len(wv.muts), s.Timings().FrontEnd-before)
		}
		if n := s.Tombstones(); n != 0 {
			t.Fatalf("%s after %d mutations left %d tombstones", wv.read, len(wv.muts), n)
		}
	}
	sn := snapshot(t, s)
	if _, ok := sn.Cluster("a", "u5"); !ok || sn.Stats().Descriptions != 1 {
		t.Fatalf("session holds %d descriptions, want u5, the one survivor", sn.Stats().Descriptions)
	}
}

// TestOpenMakesOnePass: recovery folds the log into the collection and
// builds the session once, so a log of many streaming records —
// arrivals and evictions — costs one compaction and one front-end
// pass, charged to Timings.FrontEnd.
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
	if tim := s.Timings(); tim.FrontEnd <= 0 {
		t.Fatalf("recovered Timings %+v, want the one pass in FrontEnd", tim)
	}
}
