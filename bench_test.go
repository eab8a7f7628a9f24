// Component benchmarks: the worker sweeps of the two parallel
// front-end kernels and of the matching pre-pass, the scheduler's index
// build at batch_lod size, and the streaming write path (whole waves,
// and the server's group commit). Run
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's tables and figures are `go run ./cmd/bench` (README
// "## Benchmarks"); internal/experiments' Shape tests pin what each
// must show. Stage timings, WAL append/replay and end-to-end runs are
// rows of the benchmark of record (benchmark/).
package minoaner_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/tokenize"
)

const benchSeed = 2016 // EDBT year; fixed so every run builds identical worlds

func benchWorld(b *testing.B, n int) *datagen.World {
	b.Helper()
	w, err := datagen.Generate(datagen.TwoKBs(benchSeed, n, datagen.Center(), datagen.Center()))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkGraphBuild sweeps the graph kernel's worker count on one
// workload, ECBS weighting included; compare ns/op across
// sub-benchmarks for the speedup curve (workers=1 is
// metablocking.Build).
func BenchmarkGraphBuild(b *testing.B) {
	w := benchWorld(b, 600)
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metablocking.BuildUnweighted(col, workers).Reweigh(metablocking.ECBS)
			}
		})
	}
}

// BenchmarkFrontEndBlocking sweeps tokenize + token blocking across
// the engine's worker counts (workers=1 tokenizes inline). Each
// sub-benchmark gets its own world so no worker count inherits
// another's warm token cache; after the first iteration the cache is
// warm, as in a real pipeline run.
func BenchmarkFrontEndBlocking(b *testing.B) {
	opts := tokenize.Default()
	for _, workers := range []int{1, 2, 4} {
		eng := pipeline.Select(workers, false)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := benchWorld(b, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TokenBlocking(w.Collection, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontEndCleaning sweeps block purging + filtering across
// the engine's worker counts on one pre-built block collection.
func BenchmarkFrontEndCleaning(b *testing.B) {
	w := benchWorld(b, 1000)
	col := blocking.TokenBlocking(w.Collection, tokenize.Default())
	for _, workers := range []int{1, 2, 4} {
		eng := pipeline.Select(workers, false)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				purged, err := eng.Purge(col, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Filter(purged, 0.8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontEndRun drives the whole front-end — blocking,
// cleaning, graph build, pruning — at each worker count.
func BenchmarkFrontEndRun(b *testing.B) {
	opt := pipeline.Options{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
		Scheme:      metablocking.ECBS,
		Pruning:     metablocking.WNP,
	}
	for _, workers := range []int{1, 2, 4} {
		eng := pipeline.Select(workers, false)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := benchWorld(b, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Run(eng, w.Collection, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatching drives the progressive matching stage — the
// schedule → match → update loop over the pruned comparison list —
// sequentially (workers=1) and with a parallel value-similarity
// pre-pass ahead of the serial loop (workers > 1). Every worker count
// produces a bit-identical trace (differentially tested in
// internal/core); the sub-benchmark ratio is the matching-stage
// speedup. The workload uses
// token-rich descriptions (tens of tokens, like the paper's DBpedia
// and BTC corpora) so value similarity carries its real-world share of
// the cost.
func BenchmarkMatching(b *testing.B) {
	cfg := datagen.Config{
		Seed:        benchSeed,
		NumEntities: 800,
		NameTokens:  12,
		KBs: []datagen.KBConfig{
			{Name: "alpha", Coverage: 1, Profile: datagen.Profile{
				TokenKeep: 0.9, ExtraTokens: 28, AttrsPerEntity: 56, LinkKeep: 0.9}},
			{Name: "betaKB", Coverage: 1, Profile: datagen.Profile{
				TokenKeep: 0.75, ExtraTokens: 28, AttrsPerEntity: 56, LinkKeep: 0.9}},
		},
		LinksPerEntity: 3,
	}
	w, err := datagen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS)
	edges := g.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NewResolver(m, edges, core.Config{Workers: workers}).Run()
			}
		})
	}
}

// BenchmarkNewResolver isolates the scheduler's index build —
// core.NewResolver's pair-state store and heapified queue — over the
// retained edges of a LOD-cloud world the size of the benchmark of
// record's batch_lod corpus (2 000 entities, ECBS + WNP, filter 0.8:
// about 300 k edges). The front end and the matcher are built once,
// outside the timer.
func BenchmarkNewResolver(b *testing.B) {
	w, err := datagen.Generate(datagen.LODCloud(benchSeed, 2000))
	if err != nil {
		b.Fatal(err)
	}
	fe, err := pipeline.Run(pipeline.Select(1, false), w.Collection, pipeline.Options{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
		Scheme:      metablocking.ECBS,
		Pruning:     metablocking.WNP,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolverSink = core.NewResolver(m, fe.Edges, core.Config{})
	}
	b.ReportMetric(float64(len(fe.Edges)), "edges")
}

// resolverSink keeps BenchmarkNewResolver's result live.
var resolverSink *core.Resolver

// BenchmarkServerConcurrentIngest measures write throughput through the
// server's handler: the second half of a corpus arrives as
// 4-description /ingest posts from several concurrent writers. A
// mutation only folds and each commit wave's snapshot makes the one
// pass, so with more writers than one a wave commits several ingests
// for one pass; ops/wave reports how many.
func BenchmarkServerConcurrentIngest(b *testing.B) {
	all := streamDescriptions(benchWorld(b, 200))
	seed := len(all) / 2
	var bodies []string
	for lo := seed; lo < len(all); lo += 4 {
		data, err := json.Marshal(all[lo:min(lo+4, len(all))])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, string(data))
	}
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			waves := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := minoaner.Defaults()
				cfg.Workers = 1
				p := minoaner.New(cfg)
				if err := p.Add(all[:seed]); err != nil {
					b.Fatal(err)
				}
				sess, err := p.Start()
				if err != nil {
					b.Fatal(err)
				}
				srv := server.New(sess)
				h := srv.Handler()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.StartTimer()
				for range writers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := next.Add(1) - 1; j < int64(len(bodies)); j = next.Add(1) - 1 {
							if rec := serve(h, http.MethodPost, "/ingest", bodies[j]); rec.Code != http.StatusOK {
								b.Errorf("ingest answered %d %s", rec.Code, rec.Body)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				waves += int(srv.Epoch()) - 1 // epoch 1 is the initial snapshot
				srv.Close()
			}
			ops := float64(len(bodies) * b.N)
			b.ReportMetric(ops/float64(waves), "ops/wave")
			b.ReportMetric(ops/b.Elapsed().Seconds(), "ingests/s")
		})
	}
}

// BenchmarkSessionIngest measures whole streaming waves at the public
// API — Ingest, SyncWAL, then Pending, the read that makes the pass the
// ingest left pending — with the log absent, deferred (wave), and eager
// (always). wal=wave must stay within 10% of wal=none: the front-end
// pass dominates; the append is one buffered write per batch and one
// fsync per wave.
func BenchmarkSessionIngest(b *testing.B) {
	all := streamDescriptions(benchWorld(b, 400))
	seed := len(all) / 2
	run := func(b *testing.B, open func() (*minoaner.Pipeline, error)) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := open()
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Add(all[:seed]); err != nil {
				b.Fatal(err)
			}
			sess, err := p.Start()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for lo := seed; lo < len(all); lo += 10 {
				hi := lo + 10
				if hi > len(all) {
					hi = len(all)
				}
				if err := sess.Ingest(all[lo:hi]); err != nil {
					b.Fatal(err)
				}
				if err := sess.SyncWAL(); err != nil { // the per-wave durability point
					b.Fatal(err)
				}
				sess.Pending() // the wave's read: it makes the pass
			}
			b.StopTimer()
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.Run("wal=none", func(b *testing.B) {
		run(b, func() (*minoaner.Pipeline, error) { return minoaner.New(minoaner.Defaults()), nil })
	})
	for _, pol := range []minoaner.FsyncPolicy{minoaner.FsyncWave, minoaner.FsyncAlways} {
		pol := pol
		b.Run("wal="+pol.String(), func(b *testing.B) {
			run(b, func() (*minoaner.Pipeline, error) {
				cfg := minoaner.Defaults()
				cfg.WALFsync = pol
				return minoaner.Open(filepath.Join(b.TempDir(), "wal"), cfg)
			})
		})
	}
}
