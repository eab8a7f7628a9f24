package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// perLayer lists the metrics of single layers, one group per module. A
// traced run measures them from outside: spans recorded in the
// benchmark's own files around calls into each layer's public
// functions, on the workload's own inputs. The gated ones are measured
// on every workload — the probes below run whatever the scenario — so
// BENCHMARK.json can list them; the others exist only where the
// scenario itself produces them.
var perLayer = []metricDef{
	{name: "rdf.decode_s", unit: "s", better: "lower", gated: true},                        // NewDecoder(file).DecodeAll over the workload's N-Triples files
	{name: "rdf.triples", unit: "count", better: "lower", gated: true},                     // triples decoded
	{name: "kb.load_s", unit: "s", better: "lower", gated: true},                           // DescriptionsFromTriples + Collection.Add
	{name: "kb.descs", unit: "count", better: "lower", gated: true},                        // descriptions loaded
	{name: "kb.cache_hit_ratio", unit: "ratio", better: "higher", workloads: durable},      // decoded-description and posting cache hits ÷ lookups, from the killed session's Gauges
	{name: "tokenize.warm_s", unit: "s", better: "lower", gated: true},                     // Collection.WarmTokens
	{name: "tokenize.tokens", unit: "count", better: "lower", gated: true},                 // distinct tokens per description, summed
	{name: "blocking.block_s", unit: "s", better: "lower", gated: true},                    // Engine.TokenBlocking
	{name: "blocking.purge_s", unit: "s", better: "lower", gated: true},                    // Engine.Purge
	{name: "blocking.filter_s", unit: "s", better: "lower", gated: true},                   // Engine.Filter
	{name: "blocking.blocks", unit: "count", better: "lower", gated: true},                 // blocks after cleaning
	{name: "blocking.comparisons_raw", unit: "count", better: "lower", gated: true},        // comparisons the raw blocks induce
	{name: "blocking.comparisons_clean", unit: "count", better: "lower", gated: true},      // comparisons after purge and filter
	{name: "metablocking.build_s", unit: "s", better: "lower", gated: true},                // Engine.Build
	{name: "metablocking.prune_s", unit: "s", better: "lower", gated: true},                // Engine.Prune
	{name: "metablocking.edges", unit: "count", better: "lower", gated: true},              // blocking-graph edges
	{name: "metablocking.retained_ratio", unit: "ratio", better: "lower", gated: true},     // edges pruning retains ÷ edges
	{name: "metablocking.graph_bytes", unit: "B", better: "lower", gated: true},            // Graph.Footprint
	{name: "metablocking.touched_edge_ratio", unit: "ratio", better: "lower", gated: true}, // edges a delta recomputed ÷ edges, mean over the waves (State.LastUpdate)
	{name: "metablocking.reprune_full", unit: "count", better: "lower", gated: true},       // waves whose re-prune fell back to a full pass (State.LastReprune)
	{name: "pipeline.front_s", unit: "s", better: "lower", gated: true},                    // pipeline.Run on the engine Defaults selects
	{name: "pipeline.front_seq_s", unit: "s", better: "lower", gated: true},                // pipeline.Run on Sequential{}, the single-threaded baseline
	{name: "pipeline.ingest_s", unit: "s", better: "lower", gated: true},                   // Engine.Ingest on a State, median per wave
	{name: "pipeline.evict_s", unit: "s", better: "lower", gated: true},                    // Engine.Evict on a State, median per wave
	{name: "pipeline.rebuilds", unit: "count", better: "lower", gated: true},               // waves whose graph update fell back to a full rebuild
	{name: "match.build_s", unit: "s", better: "lower", gated: true},                       // NewMatcher over the loaded corpus
	{name: "match.valuesim_ns", unit: "ns", better: "lower", gated: true},                  // Matcher.ValueSim per pair over the retained edges
	{name: "core.resolve_s", unit: "s", better: "lower", gated: true},                      // NewResolver(...) + RunBudget(0)
	{name: "core.schedule_s", unit: "s", better: "lower", gated: true},                     // Resolver.Timings().Schedule
	{name: "core.match_s", unit: "s", better: "lower", gated: true},                        // Resolver.Timings().Match
	{name: "core.update_s", unit: "s", better: "lower", gated: true},                       // Resolver.Timings().Update
	{name: "core.comparisons", unit: "count", better: "lower", gated: true},                // comparisons executed
	{name: "core.matches", unit: "count", better: "higher", gated: true},                   // comparisons that matched
	{name: "core.useful_ratio", unit: "ratio", better: "higher", gated: true},              // matches ÷ comparisons
	{name: "core.recall_auc", unit: "ratio", better: "higher", gated: true},                // area under the progressive recall curve of the trace (eval.RecallCurve(...).AUC)
	{name: "cluster.cluster_s", unit: "s", better: "lower", gated: true},                   // cluster.Cluster over the trace
	{name: "session.ingest_s", unit: "s", better: "lower", gated: true},                    // Session.Ingest, median per wave
	{name: "session.evict_s", unit: "s", better: "lower", gated: true},                     // Session.Evict, median per wave
	{name: "session.resume_s", unit: "s", better: "lower", gated: true},                    // Session.Resume(0), median per call
	{name: "session.snapshot_s", unit: "s", better: "lower", gated: true},                  // Session.Snapshot
	{name: "wal.append_s", unit: "s", better: "lower", gated: true},                        // Log.Append of the workload's records, total
	{name: "wal.sync_s", unit: "s", better: "lower", gated: true},                          // Log.Commit (fsync), median per wave
	{name: "wal.open_s", unit: "s", better: "lower", gated: true},                          // wal.Open on that log: decode only, no replay
	{name: "wal.bytes", unit: "B", better: "lower", gated: true},                           // log size
	{name: "wal.records", unit: "count", better: "lower", gated: true},                     // records in the log
	{name: "wal.replay_descs_per_s", unit: "1/s", better: "higher", workloads: durable},    // descriptions in the killed log ÷ (recover_s − wal.open_s): the replay's apply rate
	{name: "store.put_s", unit: "s", better: "lower", gated: true},                         // Disk.Put of every description, total
	{name: "store.get_s", unit: "s", better: "lower", gated: true},                         // Disk.Get of every key, total
	{name: "store.bytes", unit: "B", better: "lower", gated: true},                         // segment bytes on disk
	{name: "store.resident_bytes", unit: "B", better: "lower", gated: true},                // locator bytes in RAM
	{name: "store.write_amp", unit: "ratio", better: "lower", gated: true},                 // store bytes ÷ key and value bytes put
	{name: "server.handler_read_us", unit: "us", better: "lower", gated: true},             // GET /resolve through server.New(...).Handler() with httptest, no socket
	{name: "server.read_p99_ms", unit: "ms", better: "lower", workloads: servedOnly},       // open-loop read latency, 99th percentile
	{name: "server.epochs", unit: "count", better: "lower", workloads: servedOnly},         // snapshot epochs one server published (/status)
	{name: "server.ops_per_wave", unit: "ratio", better: "higher", workloads: servedOnly},  // mutations accepted ÷ commit waves
	{name: "server.generator_late_ms", unit: "ms", better: "lower", workloads: servedOnly}, // how late the open-loop generator sent a read, 95th percentile
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", gated: true},            // traced run_s ÷ untraced run_s
	{name: "trace.coverage_ratio", unit: "ratio", better: "higher", gated: true},           // share of a traced iteration its session-level spans cover
	{name: "trace.layer_sum_ratio", unit: "ratio", better: "higher", gated: true},          // layer self-times of the outside-in replay ÷ the session's own time for the same work
}

// writeTrace leaves every span of this process's traced runs in
// benchmark/out/trace.json.
func (b *bench) writeTrace() error {
	if b.rec == nil {
		return nil
	}
	dir := filepath.Join(b.root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "trace.json"), b.rec.spans)
}

// spanDurations lists, in seconds, the spans called name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// layerMetrics fills the per-layer metrics of a traced run: the
// session-level spans the scenario children recorded, then each layer
// probed from outside on the workload's inputs.
func (b *bench) layerMetrics(w workload, in *inputs, its []*iteration, res *runResult) error {
	if b.rec == nil {
		b.rec = newRecorder()
	}
	// Scenario iterations alternate untraced and traced (a served
	// iteration carries the same client-side timers either way, so its
	// ratio compares the run's halves).
	var plain, traced []float64
	var sessionSpans []span
	var coverage []float64
	for i, it := range its {
		if it.traced {
			traced = append(traced, it.runS)
		} else {
			plain = append(plain, it.runS)
		}
		b.rec.adopt(it.spans, i)
		sessionSpans = append(sessionSpans, it.spans...)
		if c, ok := runCoverage(it.spans); ok {
			coverage = append(coverage, c)
		}
	}
	if w.served {
		// The server's session is out of reach; its in-process twin — the
		// oracle the gate compares /sameas against — is traced instead.
		// Reads and writes were timed over the socket by every iteration.
		dir := filepath.Join(b.work, w.name, "twin")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rep, _, _, err := b.runChild(lifeSpec{KBs: in.kbs, WavesPath: in.wavesPath, Trace: true, ResultPath: filepath.Join(dir, "result.json")}, dir)
		if err != nil {
			return fmt.Errorf("traced twin: %w", err)
		}
		b.rec.adopt(rep.Spans, len(its))
		sessionSpans = rep.Spans
		if c, ok := runCoverage(rep.Spans); ok {
			coverage = append(coverage, c)
		}
		var read, late []float64
		var epochs, ops float64
		for _, it := range its {
			read = append(read, it.readMS...)
			late = append(late, it.lateMS...)
			epochs = float64(it.epochs)
			ops = float64(len(it.ingestMS)+len(it.evictMS)) * 2 // each wave is a mutation and a resume
		}
		if v, ok := percentile(read, 0.99); ok {
			res.set("server.read_p99_ms", v, read)
		}
		if v, ok := percentile(late, 0.95); ok {
			res.set("server.generator_late_ms", v, late)
		}
		res.set("server.epochs", epochs, nil)
		res.set("server.ops_per_wave", ops/(epochs-1), nil) // epoch 1 is the initial snapshot
	}
	res.set("trace.overhead_ratio", median(traced)/median(plain), nil)
	res.set("trace.coverage_ratio", median(coverage), coverage)
	for metric, name := range map[string]string{"session.ingest_s": "session.ingest", "session.evict_s": "session.evict", "session.resume_s": "session.resume"} {
		ds := spanDurations(sessionSpans, name)
		res.set(metric, median(ds), ds)
	}
	if w.durable {
		last := its[len(its)-1]
		if n := last.gauges.StoreCacheHits + last.gauges.StoreCacheMisses; n > 0 {
			res.set("kb.cache_hit_ratio", float64(last.gauges.StoreCacheHits)/float64(n), nil)
		}
	}

	p := &probe{rec: b.rec, in: in, res: res, dir: filepath.Join(b.work, w.name, "probe")}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	var err error
	b.rec.iteration = -1 // probes belong to no scenario iteration
	b.rec.in("layers", func() { err = p.run(w) })
	if err != nil {
		return err
	}
	if w.durable {
		var recovers []float64
		for _, it := range its {
			recovers = append(recovers, it.recoverS)
		}
		inLog := in.seedN
		for _, wv := range in.waves {
			inLog += len(wv.Ingest) + len(wv.Evict)
		}
		if apply := median(recovers) - res.Metrics["wal.open_s"].Value; apply > 0 {
			res.set("wal.replay_descs_per_s", float64(inLog)/apply, nil)
		}
	}
	// The outside-in replay must account for the session's own time:
	// for the batch scenario the whole run, for the others the waves.
	sessionTime := median(traced)
	if len(in.waves) > 0 {
		sessionTime = 0
		for _, name := range []string{"session.ingest", "session.evict", "session.resume"} {
			for _, d := range spanDurations(sessionSpans, name) {
				sessionTime += d
			}
		}
		sessionTime /= float64(len(spanDurations(sessionSpans, "run"))) // per traced iteration
	}
	res.set("trace.layer_sum_ratio", p.layerSum/sessionTime, nil)
	return nil
}

// runCoverage is the share of an iteration's "run" span that is not its
// own self time: what the calls into the session, its children, cover.
func runCoverage(spans []span) (float64, bool) {
	total := totalTimes(spans)["run"]
	if total == 0 {
		return 0, false
	}
	return 1 - float64(selfTimes(spans)["run"])/float64(total), true
}

// probe measures each layer from outside, on one workload's inputs.
type probe struct {
	rec *recorder
	in  *inputs
	res *runResult
	dir string
	// layerSum adds up the probe time that replays work the session
	// scenario also did, for trace.layer_sum_ratio.
	layerSum float64
}

// timed runs fn as a span and returns how long it took, in seconds.
func (p *probe) timed(name string, fn func()) float64 {
	t := time.Now()
	p.rec.in(name, fn)
	return time.Since(t).Seconds()
}

func (p *probe) run(w workload) error {
	cfg := sessionConfig(lifeSpec{})
	cfg.Match.Tokenize = cfg.Tokenize // as minoaner.New does
	workers := parmeta.Workers(cfg.Workers)
	eng := pipeline.Select(cfg.Workers, false)
	batchScenario := len(p.in.waves) == 0
	count := func(name string, secs float64) {
		p.res.set(name, secs, nil)
		if batchScenario {
			p.layerSum += secs // the batch scenario does every one of these once
		}
	}

	// rdf, kb: the loader's two halves.
	col := kb.NewCollection()
	var decodeS, loadS float64
	triples := 0
	for _, kf := range p.in.kbs {
		f, err := os.Open(kf.Path)
		if err != nil {
			return err
		}
		var ts []rdf.Triple
		decodeS += p.timed("rdf.decode", func() { ts, err = rdf.NewDecoder(f).DecodeAll() })
		f.Close()
		if err != nil {
			return err
		}
		triples += len(ts)
		loadS += p.timed("kb.load", func() {
			for _, d := range kb.DescriptionsFromTriples(kf.Name, ts) {
				col.Add(d)
			}
		})
	}
	count("rdf.decode_s", decodeS)
	count("kb.load_s", loadS)
	p.res.set("rdf.triples", float64(triples), nil)
	p.res.set("kb.descs", float64(col.Len()), nil)

	// tokenize, blocking, metablocking: the front end stage by stage, on
	// the engine Defaults selects.
	var toks [][]string
	count("tokenize.warm_s", p.timed("tokenize.warm", func() { toks = col.WarmTokens(cfg.Tokenize, workers) }))
	nTok := 0
	for _, t := range toks {
		nTok += len(t)
	}
	p.res.set("tokenize.tokens", float64(nTok), nil)

	raw, cleaned, g, edges, err := p.frontStages(eng, col, cfg, count)
	if err != nil {
		return err
	}
	p.res.set("blocking.blocks", float64(cleaned.NumBlocks()), nil)
	p.res.set("blocking.comparisons_raw", float64(raw.TotalComparisons()), nil)
	p.res.set("blocking.comparisons_clean", float64(cleaned.TotalComparisons()), nil)
	p.res.set("metablocking.edges", float64(g.NumEdges()), nil)
	p.res.set("metablocking.retained_ratio", float64(len(edges))/float64(max(g.NumEdges(), 1)), nil)
	p.res.set("metablocking.graph_bytes", float64(g.Footprint()), nil)

	// pipeline: the same front end as one call, on the selected engine
	// and on the sequential baseline. front_s > front_seq_s is the
	// "parallel path loses" finding.
	opt := pipeline.Options{
		Tokenize: cfg.Tokenize, PurgeMaxBlockSize: cfg.PurgeMaxBlockSize, FilterRatio: cfg.FilterRatio,
		Scheme: cfg.Scheme, Pruning: cfg.Pruning, Reciprocal: cfg.Reciprocal,
	}
	p.res.set("pipeline.front_s", p.timed("pipeline.front", func() { _, err = pipeline.Run(eng, col, opt) }), nil)
	if err != nil {
		return err
	}
	p.res.set("pipeline.front_seq_s", p.timed("pipeline.front_seq", func() { _, err = pipeline.Run(pipeline.Sequential{}, col, opt) }), nil)
	if err != nil {
		return err
	}

	// match, core, cluster: the matching stage over the retained edges.
	var m *match.Matcher
	count("match.build_s", p.timed("match.build", func() { m = match.NewMatcher(col, cfg.Match) }))
	simS := p.timed("match.valuesim", func() {
		for _, e := range edges {
			m.ValueSim(e.A, e.B)
		}
	})
	p.res.set("match.valuesim_ns", simS*1e9/float64(max(len(edges), 1)), nil)
	var resolver *core.Resolver
	var out *core.Result
	count("core.resolve_s", p.timed("core.resolve", func() {
		resolver = core.NewResolver(m, edges, core.Config{Benefit: cfg.Benefit, DisableDiscovery: cfg.DisableDiscovery, Workers: workers})
		out = resolver.RunBudget(0)
	}))
	tim := resolver.Timings()
	p.res.set("core.schedule_s", tim.Schedule.Seconds(), nil)
	p.res.set("core.match_s", tim.Match.Seconds(), nil)
	p.res.set("core.update_s", tim.Update.Seconds(), nil)
	p.res.set("core.comparisons", float64(out.Comparisons), nil)
	p.res.set("core.matches", float64(out.Matches), nil)
	p.res.set("core.useful_ratio", float64(out.Matches)/float64(max(out.Comparisons, 1)), nil)
	auc := p.recallAUC(col, out.Trace)
	p.res.set("core.recall_auc", auc, nil)
	if batchScenario {
		p.res.set("recall_auc", auc, nil)
		if w.f1Floor > 0 && auc < recallAUCFloor {
			p.res.problem("recall_auc %.4f below the floor %.2f", auc, recallAUCFloor)
		}
	}
	count("cluster.cluster_s", p.timed("cluster.cluster", func() {
		cluster.Cluster(cfg.Clustering, cluster.FromSteps(out.Trace), col, col.Len())
	}))

	if err := p.waves(eng, col, opt, cfg, resolver, out.Trace, w); err != nil {
		return err
	}
	if err := p.walAndStore(); err != nil {
		return err
	}
	return p.sessionAndServer(cfg)
}

// frontStages runs blocking → purge → filter → build → prune one engine
// call at a time.
func (p *probe) frontStages(eng pipeline.Engine, col *kb.Collection, cfg minoaner.Config, count func(string, float64)) (raw, cleaned *blocking.Collection, g *metablocking.Graph, edges []metablocking.Edge, err error) {
	var purged *blocking.Collection
	count("blocking.block_s", p.timed("blocking.block", func() { raw, err = eng.TokenBlocking(col, cfg.Tokenize) }))
	if err != nil {
		return
	}
	count("blocking.purge_s", p.timed("blocking.purge", func() { purged, err = eng.Purge(raw, cfg.PurgeMaxBlockSize) }))
	if err != nil {
		return
	}
	count("blocking.filter_s", p.timed("blocking.filter", func() { cleaned, err = eng.Filter(purged, cfg.FilterRatio) }))
	if err != nil {
		return
	}
	count("metablocking.build_s", p.timed("metablocking.build", func() { g, err = eng.Build(cleaned, cfg.Scheme) }))
	if err != nil {
		return
	}
	popts := metablocking.PruneOptions{Reciprocal: cfg.Reciprocal, Assignments: cleaned.Assignments()}
	count("metablocking.prune_s", p.timed("metablocking.prune", func() { edges, err = eng.Prune(g, cfg.Pruning, popts) }))
	return
}

// recallAUC scores a comparison trace over col against the ground
// truth: the area under recall-so-far as comparisons are spent.
func (p *probe) recallAUC(col *kb.Collection, trace []core.Step) float64 {
	c := p.in.corpus
	world := func(id int) int {
		return c.worldID[minoaner.Ref{KB: col.KBName(col.KBOf(id)), URI: col.URIOf(id)}]
	}
	loaded := make([]minoaner.Description, 0, col.Len())
	for id := 0; id < col.Len(); id++ {
		loaded = append(loaded, minoaner.Description{KB: col.KBName(col.KBOf(id)), URI: col.URIOf(id)})
	}
	truth := truthOver(c, loaded)
	outcomes := make([]bool, len(trace))
	for i, s := range trace {
		outcomes[i] = s.Matched && truth.Match(world(s.A), world(s.B))
	}
	total := truth.CrossKBMatchingPairs(c.world.Collection)
	return eval.RecallCurve(outcomes, total, 0).AUC(len(trace))
}

// waves replays the workload's waves at layer level — the engine's
// delta pass on a pipeline.State, the matcher rebuild, the resolver's
// reseed or retract, the resumed matching and the re-clustering of the
// cumulative trace — which is what a session's Ingest|Evict + Resume
// does inside. The batch scenario has
// no waves; its probe tail (evict and re-ingest the oldest) stands in.
func (p *probe) waves(eng pipeline.Engine, col *kb.Collection, opt pipeline.Options, cfg minoaner.Config, resolver *core.Resolver, trace []core.Step, w workload) error {
	waves := p.in.waves
	if len(waves) == 0 {
		waves = probeWaves(p.in)
	}
	var st *pipeline.State
	var err error
	p.rec.in("pipeline.start", func() { st, err = pipeline.Start(eng, col, opt) })
	if err != nil {
		return err
	}
	var ingestS, evictS []float64
	var touched float64
	fullReprunes, rebuilds := 0, 0
	for _, wv := range waves {
		edgesBefore := max(st.Front.Graph.NumEdges(), 1)
		var d float64
		evict := len(wv.Evict) > 0
		if evict {
			for _, r := range wv.Evict {
				id, ok := col.IDOf(r.KB, r.URI)
				if !ok {
					return fmt.Errorf("probe: evict %s/%s: not loaded", r.KB, r.URI)
				}
				col.Evict(id)
			}
			d = p.timed("pipeline.evict", func() { err = eng.Evict(st) })
			evictS = append(evictS, d)
		} else {
			d = p.timed("kb.load", func() {
				for _, x := range wv.Ingest {
					col.Add(&kb.Description{URI: x.URI, KB: x.KB, Types: x.Types, Attrs: x.Attrs, Links: x.Links})
				}
			})
			pass := p.timed("pipeline.ingest", func() { err = eng.Ingest(st) })
			ingestS = append(ingestS, pass)
			d += pass
		}
		if err != nil {
			return err
		}
		touched += float64(st.LastUpdate.EdgesTouched) / float64(edgesBefore)
		if st.LastUpdate.Rebuilt {
			rebuilds++
		}
		if st.LastReprune.Full {
			fullReprunes++
		}
		var m *match.Matcher
		d += p.timed("match.build", func() { m = match.NewMatcher(col, cfg.Match) })
		if evict {
			kept := trace[:0]
			for _, s := range trace {
				if col.Alive(s.A) && col.Alive(s.B) {
					kept = append(kept, s)
				}
			}
			trace = kept
			d += p.timed("core.retract", func() { resolver.Retract(m, st.Front.Edges, trace) })
		} else {
			d += p.timed("core.reseed", func() { resolver.Reseed(m, st.Front.Edges) })
		}
		var out *core.Result
		d += p.timed("core.resolve", func() { out = resolver.RunBudget(0) })
		trace = append(trace, out.Trace...)
		// Resume rebuilds the cumulative result: a clustering of the whole
		// trace so far, every wave.
		d += p.timed("cluster.cluster", func() {
			cluster.Cluster(cfg.Clustering, cluster.FromSteps(trace), col, col.Len())
		})
		if len(p.in.waves) > 0 {
			p.layerSum += d
		}
	}
	p.res.set("pipeline.ingest_s", median(ingestS), ingestS)
	p.res.set("pipeline.evict_s", median(evictS), evictS)
	p.res.set("pipeline.rebuilds", float64(rebuilds), nil)
	p.res.set("metablocking.touched_edge_ratio", touched/float64(len(waves)), nil)
	p.res.set("metablocking.reprune_full", float64(fullReprunes), nil)
	return nil
}

// walAndStore writes the workload's mutations through the log and its
// descriptions through the disk store, the way a durable session's
// records and bodies would go, and reads them back.
func (p *probe) walAndStore() error {
	type record struct {
		typ     byte
		payload []byte
	}
	seed, err := json.Marshal(p.in.corpus.descs[:p.in.seedN])
	if err != nil {
		return err
	}
	records := []record{{wal.TypeIngest, seed}, {wal.TypeStart, nil}}
	for _, wv := range p.in.waves {
		rec := record{typ: wal.TypeIngest}
		if len(wv.Evict) > 0 {
			rec.typ = wal.TypeEvict
			rec.payload, err = json.Marshal(map[string]any{"refs": wv.Evict})
		} else {
			rec.payload, err = json.Marshal(wv.Ingest)
		}
		if err != nil {
			return err
		}
		records = append(records, rec)
	}
	walDir := filepath.Join(p.dir, "wal")
	log, _, err := wal.Open(walDir, wal.SyncWave)
	if err != nil {
		return err
	}
	var appendS float64
	var syncS []float64
	for _, r := range records {
		appendS += p.timed("wal.append", func() { err = log.Append(r.typ, r.payload) })
		if err != nil {
			log.Close()
			return err
		}
		syncS = append(syncS, p.timed("wal.commit", func() { err = log.Commit() }))
		if err != nil {
			log.Close()
			return err
		}
	}
	stats := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	p.res.set("wal.append_s", appendS, nil)
	p.res.set("wal.sync_s", median(syncS), syncS)
	p.res.set("wal.bytes", float64(stats.Bytes), nil)
	p.res.set("wal.records", float64(stats.Records), nil)
	var reopened *wal.Log
	p.res.set("wal.open_s", p.timed("wal.open", func() { reopened, _, err = wal.Open(walDir, wal.SyncWave) }), nil)
	if err != nil {
		return err
	}
	if err := reopened.Close(); err != nil {
		return err
	}

	disk, err := store.OpenDisk(filepath.Join(p.dir, "store"), store.DiskOptions{Reset: true})
	if err != nil {
		return err
	}
	defer disk.Close()
	descs := p.in.corpus.descs[:p.in.seedN]
	values := make([][]byte, len(descs))
	var userBytes int
	for i, d := range descs {
		if values[i], err = json.Marshal(d); err != nil {
			return err
		}
		userBytes += 9 + len(values[i]) // U64Key is a tag byte and eight id bytes
	}
	p.res.set("store.put_s", p.timed("store.put", func() {
		for i, v := range values {
			if err = disk.Put(store.U64Key('d', uint64(i)), v); err != nil {
				return
			}
		}
	}), nil)
	if err != nil {
		return err
	}
	p.res.set("store.get_s", p.timed("store.get", func() {
		for i := range values {
			if _, _, err = disk.Get(store.U64Key('d', uint64(i))); err != nil {
				return
			}
		}
	}), nil)
	if err != nil {
		return err
	}
	st := disk.Stats()
	p.res.set("store.bytes", float64(st.Bytes), nil)
	p.res.set("store.resident_bytes", float64(st.Resident), nil)
	p.res.set("store.write_amp", float64(st.Bytes)/float64(max(userBytes, 1)), nil)
	return nil
}

// sessionAndServer resolves the loaded corpus in an in-process session,
// times its Snapshot, and reads through the server's handler without a
// socket.
func (p *probe) sessionAndServer(cfg minoaner.Config) error {
	pl := minoaner.New(cfg)
	for _, kf := range p.in.kbs {
		if err := pl.LoadKBFile(kf.Name, kf.Path); err != nil {
			return err
		}
	}
	sess, err := pl.Start()
	if err != nil {
		return err
	}
	if _, err := sess.Resume(0); err != nil {
		return err
	}
	var snaps []float64
	for i := 0; i < 5; i++ {
		snaps = append(snaps, p.timed("session.snapshot", func() { sess.Snapshot() }))
	}
	p.res.set("session.snapshot_s", median(snaps), snaps)

	srv := server.New(sess) // owns the session from here on
	defer srv.Close()
	h := srv.Handler()
	const reads = 2000
	failed := 0
	total := p.timed("server.handler_read", func() {
		for i := 0; i < reads; i++ {
			d := p.in.corpus.descs[i%p.in.seedN]
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/resolve?uri="+url.QueryEscape(d.URI), nil))
			if rr.Code != http.StatusOK {
				failed++
			}
		}
	})
	p.res.Attempted += reads
	p.res.Failed += failed
	p.res.set("server.handler_read_us", total*1e6/reads, nil)
	return nil
}
