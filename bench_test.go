// Benchmarks regenerating every table and figure of the reconstructed
// evaluation (DESIGN.md §3). Each BenchmarkXx runs the corresponding
// experiment at laptop scale; run
//
//	go test -bench=. -benchmem
//
// and compare the reported rows with EXPERIMENTS.md. Component
// micro-benchmarks for the hot paths follow the experiment benches.
package minoaner_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/tokenize"
	"repro/internal/wal"
)

const benchSeed = 2016 // EDBT year; fixed so every run regenerates identical tables

// report runs an experiment once, prints its table under -v, and
// exposes rows/op-style metrics for regressions.
func report(b *testing.B, run func() *experiments.Table) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = run()
	}
	b.StopTimer()
	var sb strings.Builder
	tab.Fprint(&sb)
	b.Log("\n" + sb.String())
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

func BenchmarkF1Pipeline(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.F1Pipeline(benchSeed, 300) })
}

func BenchmarkT1Blocking(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.T1Blocking(benchSeed, []int{200, 400}) })
}

func BenchmarkT2BlockCleaning(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.T2BlockCleaning(benchSeed, 400) })
}

func BenchmarkT3MetaBlocking(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.T3MetaBlocking(benchSeed, 300) })
}

func BenchmarkF2Progressive(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.F2Progressive(benchSeed, 300) })
}

func BenchmarkF3Benefits(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.F3Benefits(benchSeed, 300) })
}

func BenchmarkT4NeighborEvidence(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.T4NeighborEvidence(benchSeed, 300) })
}

func BenchmarkT5Parallel(b *testing.B) {
	report(b, func() *experiments.Table {
		return experiments.T5Parallel(benchSeed, 400, []int{1, 2, 4, 8})
	})
}

func BenchmarkF4Scalability(b *testing.B) {
	report(b, func() *experiments.Table {
		return experiments.F4Scalability(benchSeed, []int{100, 200, 400, 800})
	})
}

func BenchmarkT6DirtyER(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.T6DirtyER(benchSeed, 300) })
}

// --- ablation benches (design choices called out in DESIGN.md) -----

func BenchmarkA1BlockingMethods(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A1BlockingMethods(benchSeed, 300) })
}

func BenchmarkA2NeighborWeight(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A2NeighborWeight(benchSeed, 300) })
}

func BenchmarkA3SchedulerComponents(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A3SchedulerComponents(benchSeed, 300) })
}

func BenchmarkA4SchemeProgressive(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A4SchemeProgressive(benchSeed, 300) })
}

func BenchmarkA5PruningReciprocal(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A5PruningReciprocal(benchSeed, 300) })
}

func BenchmarkA6Clustering(b *testing.B) {
	report(b, func() *experiments.Table { return experiments.A6Clustering(benchSeed, 300) })
}

// --- component micro-benchmarks -----------------------------------

func benchWorld(b *testing.B, n int) *datagen.World {
	b.Helper()
	w, err := datagen.Generate(datagen.TwoKBs(benchSeed, n, datagen.Center(), datagen.Center()))
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkTokenBlocking(b *testing.B) {
	w := benchWorld(b, 1000)
	opts := tokenize.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocking.TokenBlocking(w.Collection, opts)
	}
}

func BenchmarkMetaBlockingBuild(b *testing.B) {
	w := benchWorld(b, 600)
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metablocking.Build(col, metablocking.ECBS)
	}
}

func BenchmarkPruneWNP(b *testing.B) {
	w := benchWorld(b, 600)
	col := blocking.TokenBlocking(w.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	g := metablocking.Build(col, metablocking.ECBS)
	opts := metablocking.PruneOptions{Assignments: col.Assignments()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Prune(metablocking.WNP, opts)
	}
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

func BenchmarkMatcherValueSim(b *testing.B) {
	w := benchWorld(b, 400)
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ValueSim(i%w.Collection.Len(), (i*7+1)%w.Collection.Len())
	}
}

func BenchmarkNTriplesDecode(b *testing.B) {
	w := benchWorld(b, 300)
	doc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineEndToEnd(b *testing.B) {
	w := benchWorld(b, 300)
	docA, _ := rdf.WriteString(w.Triples("alpha"))
	docB, _ := rdf.WriteString(w.Triples("betaKB"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := minoaner.New(minoaner.Defaults())
		if err := p.LoadKB("alpha", strings.NewReader(docA)); err != nil {
			b.Fatal(err)
		}
		if err := p.LoadKB("betaKB", strings.NewReader(docB)); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Resolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 8 WAL benchmarks -------------------------------------------

// walBenchPayload is a realistic ingest-batch payload: ten wire
// descriptions JSON-encoded exactly as Session.Ingest logs them.
func walBenchPayload(b *testing.B) []byte {
	b.Helper()
	batch := streamDescriptions(benchWorld(b, 200))[:10]
	data, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkWALAppend measures the raw log append path per fsync
// policy. SyncWave commits every 64 appends — the server's wave
// cadence — so its row is the durability cost an operator actually
// pays; the amplification metric is log bytes per payload byte (the
// 9-byte frame header over JSON batches).
func BenchmarkWALAppend(b *testing.B) {
	payload := walBenchPayload(b)
	for _, pol := range []wal.Policy{wal.SyncOff, wal.SyncWave, wal.SyncAlways} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			l, recs, err := wal.Open(b.TempDir(), pol)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != 0 {
				b.Fatal("fresh log dir not empty")
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(wal.TypeIngest, payload); err != nil {
					b.Fatal(err)
				}
				if pol == wal.SyncWave && (i+1)%64 == 0 {
					if err := l.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(st.Bytes)/float64(int64(b.N)*int64(len(payload))), "amplification")
		})
	}
}

// walBenchLog seeds dir with a streamed session's log — half the
// corpus loaded before Start, the rest ingested in batches of ten —
// and returns the description count a replay must recover.
func walBenchLog(b *testing.B, dir string) int {
	b.Helper()
	p, err := minoaner.Open(dir, minoaner.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	all := streamDescriptions(benchWorld(b, 400))
	seed := len(all) / 2
	if err := p.Add(all[:seed]); err != nil {
		b.Fatal(err)
	}
	sess, err := p.Start()
	if err != nil {
		b.Fatal(err)
	}
	for lo := seed; lo < len(all); lo += 10 {
		hi := lo + 10
		if hi > len(all) {
			hi = len(all)
		}
		if err := sess.Ingest(all[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	return len(all)
}

// BenchmarkWALReplay is recovery cost: Open folds every record into
// the collection and the session's bookkeeping, then builds the session
// with one front-end pass over the folded corpus, so ns/op here is the
// restart latency the log buys instead of a from-source rebuild.
func BenchmarkWALReplay(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "wal")
	n := walBenchLog(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := minoaner.Open(dir, minoaner.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		if p.NumDescriptions() != n {
			b.Fatalf("replay recovered %d descriptions, want %d", p.NumDescriptions(), n)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "descs")
}

// BenchmarkSessionIngest measures the public streaming mutation path
// with the log absent, deferred (wave), and eager (always). The PR 8
// acceptance line reads off the first two rows: wal=wave must stay
// within 10% of wal=none (the front-end pass dominates; the append is
// one buffered write per batch and one fsync per wave).
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
