// Process-boundary differential suite: the MapReduce engine's output
// must not move a bit when its tasks leave the process. The oracle is
// the same engine on the in-process LocalRunner — the one comparison
// the repo's digest discipline guarantees (cross-engine float
// round-off is documented out of scope) — and the subject is the
// identical plan shipped to `minoaner worker` subprocesses over the
// framed pipe protocol, swept across the golden corpus, ingest/evict
// interleavings, WAL recovery, and a mid-task worker SIGKILL.
package minoaner_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	minoaner "repro"
)

// mrConfig returns the MapReduce-engine config pinned to one runner,
// immune to the CI matrix's MINOANER_MR_RUNNER leg.
func mrConfig(runner string) minoaner.Config {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 4
	cfg.MapReduce = true
	cfg.MRRunner = runner
	return cfg
}

// TestProcRunnerDifferential is the tentpole's correctness proof: the
// dataflow front end digests identically whether its tasks run on
// in-process goroutines or on worker subprocesses.
func TestProcRunnerDifferential(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		// The pinned corpus, resolved end to end under each runner.
		load := func(p *minoaner.Pipeline) {
			w := goldenWorld(t)
			for _, name := range []string{"alpha", "betaKB"} {
				var docs []minoaner.Description
				for id := 0; id < w.Collection.Len(); id++ {
					d := w.Collection.Desc(id)
					if d.KB == name {
						docs = append(docs, minoaner.Description{
							KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
						})
					}
				}
				if err := p.Add(docs); err != nil {
					t.Fatal(err)
				}
			}
		}
		digest := func(runner string) string {
			p := minoaner.New(mrConfig(runner))
			defer p.Close()
			load(p)
			out, err := p.Resolve()
			if err != nil {
				t.Fatalf("runner=%q: %v", runner, err)
			}
			return resultDigest(out)
		}
		want := digest("local")
		if got := digest("proc"); got != want {
			t.Errorf("golden corpus: proc digest %s, local %s", got, want)
		}
	})

	t.Run("interleavings", func(t *testing.T) {
		scenarios := []struct {
			name string
			ttl  int
			thr  float64
		}{
			{"plain", 0, -1},
			{"ttl", 2, -1},
			{"ttl+compaction", 2, 0.2},
		}
		for _, sc := range scenarios {
			t.Run(sc.name, func(t *testing.T) {
				ops := recoveryOps(t, 8)
				local := mrConfig("local")
				local.TTL = sc.ttl
				local.CompactionThreshold = sc.thr
				want := runOpsDigest(t, local, ops)
				if want == "empty" {
					t.Fatal("workload resolves to nothing — the axis would prove nothing")
				}
				proc := mrConfig("proc")
				proc.TTL = sc.ttl
				proc.CompactionThreshold = sc.thr
				if got := runOpsDigest(t, proc, ops); got != want {
					t.Errorf("proc digest %s, want local %s", got, want)
				}
			})
		}
	})

	t.Run("wal-recovery", func(t *testing.T) {
		// A workload recorded under the proc runner recovers — replaying
		// every pass through subprocesses again — to the digest of a
		// local-runner pipeline that never restarted.
		ops := recoveryOps(t, 8)
		local := mrConfig("local")
		local.CompactionThreshold = -1
		want := runOpsDigest(t, local, ops)

		proc := mrConfig("proc")
		proc.CompactionThreshold = -1
		raw := recordWorkload(t, proc, ops)
		k, p := surviveAndRecover(t, proc, raw)
		if k != len(ops) {
			t.Fatalf("full log holds %d records, want %d", k, len(ops))
		}
		got := finishDigest(t, p)
		p.Close()
		if got != want {
			t.Errorf("recovered proc digest %s, want local %s", got, want)
		}
	})

	t.Run("mid-task-kill", func(t *testing.T) {
		// A worker SIGKILLed between receiving a task and answering it, at
		// every mutation of the workload: the retried run must not move a
		// bit, and the retry must be visible in the gauges.
		ops := recoveryOps(t, 8)
		local := mrConfig("local")
		want := runOpsDigest(t, local, ops)

		p := minoaner.New(mrConfig("proc"))
		defer p.Close()
		for _, op := range ops {
			if pr := p.MRProcRunner(); pr != nil {
				pr.KillNextTask() // arm before every post-Start mutation
			}
			applyOp(t, p, op)
		}
		got := finishDigest(t, p)
		if got != want {
			t.Errorf("digest with mid-task kills %s, want %s", got, want)
		}
		g := p.Current().Gauges()
		if g.MRRetries == 0 {
			t.Error("mid-task kills registered no retries in the gauges")
		}
		if g.MRWorkers < 2 {
			t.Errorf("mrWorkers=%d; killed workers must be replaced by fresh ones", g.MRWorkers)
		}
		if g.MRShuffleBytes == 0 {
			t.Error("mrShuffleBytes gauge never moved")
		}
	})
}

// TestMRRunnerConfig pins the knob's surface: the env hook feeds the
// test helper and never Defaults, explicit spellings pass validation,
// and a typo fails Start with an error naming the bad value instead of
// silently running in-process.
func TestMRRunnerConfig(t *testing.T) {
	t.Setenv("MINOANER_MR_RUNNER", "proc")
	if got := minoaner.EnvDefaults().MRRunner; got != "proc" {
		t.Errorf("EnvDefaults().MRRunner=%q, want env's proc", got)
	}
	if got := minoaner.Defaults().MRRunner; got != "" {
		t.Errorf("Defaults().MRRunner=%q, want no env read", got)
	}
	t.Setenv("MINOANER_MR_RUNNER", "")

	cfg := mrConfig("bogus")
	p := minoaner.New(cfg)
	defer p.Close()
	if err := p.Add([]minoaner.Description{{KB: "a", URI: "http://x/1",
		Attrs: []minoaner.Attribute{{Predicate: "name", Value: "one"}}}}); err != nil {
		t.Fatal(err)
	}
	_, err := p.Start()
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown runner: err=%v, want it named", err)
	}

	// The runner knob is MapReduce-scoped: on the shared engine it is
	// validated but otherwise inert.
	scfg := minoaner.EnvDefaults()
	scfg.Workers = 4
	scfg.MRRunner = "proc"
	sp := minoaner.New(scfg)
	defer sp.Close()
	if err := sp.Add([]minoaner.Description{{KB: "a", URI: "http://x/1",
		Attrs: []minoaner.Attribute{{Predicate: "name", Value: "one"}}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Start(); err != nil {
		t.Fatalf("proc runner on shared engine: %v", err)
	}
	if sp.MRProcRunner() != nil {
		t.Error("shared engine spawned a worker pool")
	}
}

// TestStartContextCancelled: cancelling the front-end build returns the
// cancellation with no session created; a later un-cancelled Start
// succeeds on the unchanged pipeline.
func TestStartContextCancelled(t *testing.T) {
	p := minoaner.New(mrConfig("local"))
	defer p.Close()
	w := goldenWorld(t)
	var docs []minoaner.Description
	for id := 0; id < w.Collection.Len(); id++ {
		d := w.Collection.Desc(id)
		docs = append(docs, minoaner.Description{KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links})
	}
	if err := p.Add(docs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.StartContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if p.Current() != nil {
		t.Fatal("cancelled Start left a session behind")
	}
	if _, err := p.Start(); err != nil {
		t.Fatalf("pipeline unusable after cancelled Start: %v", err)
	}
}

// TestIngestContextCancelled: cancellation once the mutation is
// committed to the batch poisons the session — the front end can no
// longer reconcile — with an error carrying both ErrDesynced and the
// cancellation, and every later mutation returns the same poison.
func TestIngestContextCancelled(t *testing.T) {
	p := minoaner.New(mrConfig("local"))
	defer p.Close()
	ops := recoveryOps(t, 8)
	applyOp(t, p, ops[0])
	applyOp(t, p, ops[1]) // start
	s := p.Current()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.IngestContext(ctx, ops[2].ingest)
	if !errors.Is(err, minoaner.ErrDesynced) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want ErrDesynced wrapping context.Canceled", err)
	}
	if again := s.Ingest(ops[3].ingest); !errors.Is(again, minoaner.ErrDesynced) {
		t.Fatalf("poison not sticky: %v", again)
	}

	// An un-cancelled context mutates normally and digests identically to
	// the context-free path.
	fresh := minoaner.New(mrConfig("local"))
	defer fresh.Close()
	applyOp(t, fresh, ops[0])
	applyOp(t, fresh, ops[1])
	fs := fresh.Current()
	if err := fs.IngestContext(context.Background(), ops[2].ingest); err != nil {
		t.Fatal(err)
	}
	if err := fs.EvictContext(context.Background(), []minoaner.Ref{
		{KB: ops[2].ingest[0].KB, URI: ops[2].ingest[0].URI}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.EvictKBContext(context.Background(), "nope"); !errors.Is(err, minoaner.ErrUnknownKB) {
		t.Fatalf("EvictKBContext: err=%v, want ErrUnknownKB", err)
	}
}

// TestMRGaugesAcrossRunners: the MapReduce gauges move on both runners
// (shuffle bytes are runner-independent), mrWorkers counts spawned
// subprocesses only on proc, and non-MR sessions keep all three at
// zero.
func TestMRGaugesAcrossRunners(t *testing.T) {
	ops := recoveryOps(t, 8)
	gauges := func(cfg minoaner.Config) minoaner.Gauges {
		p := minoaner.New(cfg)
		t.Cleanup(func() { p.Close() })
		for _, op := range ops {
			applyOp(t, p, op)
		}
		return p.Current().Gauges()
	}

	local := gauges(mrConfig("local"))
	if local.MRShuffleBytes == 0 {
		t.Errorf("local runner: mrShuffleBytes=0: %+v", local)
	}
	if local.MRWorkers != 0 {
		t.Errorf("local runner spawned workers: %+v", local)
	}

	proc := gauges(mrConfig("proc"))
	if proc.MRWorkers == 0 {
		t.Errorf("proc runner: mrWorkers=0: %+v", proc)
	}
	if proc.MRShuffleBytes != local.MRShuffleBytes {
		t.Errorf("shuffle bytes differ across runners: proc %d, local %d — the gauge is not runner-independent",
			proc.MRShuffleBytes, local.MRShuffleBytes)
	}

	shared := minoaner.EnvDefaults()
	shared.Workers = 4
	if g := gauges(shared); g.MRWorkers != 0 || g.MRRetries != 0 || g.MRShuffleBytes != 0 {
		t.Errorf("shared engine reports MR gauges: %+v", g)
	}
}
