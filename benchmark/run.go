package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	minoaner "repro"
)

// setupReps is how often a run repeats the set-up: setup_s is their
// median, so one slow file write does not set it. The set-up is tens of
// milliseconds of allocation-heavy work inside the driver, so each
// repetition starts from a collected heap, as testing.B does.
const setupReps = 9

// corporaPerRun is how many corpora one untraced run cycles its
// iterations over. Two seeds' corpora differ by more than two runs of
// one corpus do (run_s: ≈ 5 % against ≈ 2 %), and the acceptance rule
// takes its spread across seeds; averaging each metric over three
// corpora per run takes most of that seed-to-seed difference out.
const corporaPerRun = 3

// corpusSeed derives the seed of a run's k-th corpus; distinct run
// seeds share no corpus.
func corpusSeed(seed int64, k int) int64 { return seed*corporaPerRun + int64(k) }

// iteration is what one scenario iteration — one fresh process under
// test — contributed.
type iteration struct {
	readyS, runS      float64
	use               usage
	ingestMS, evictMS []float64
	writeMS           []float64 // serve_mixed: POST sent → 2xx
	readMS, lateMS    []float64 // serve_mixed: open-loop reads, generator lateness
	recoverS          float64   // stream_durable: Open on the killed log
	storedBytes       int64     // stream_durable: WAL + store bytes on disk at the kill
	processed, live   int
	attempted, failed int
	exact             string // digest of the result as produced, order and scores included
	sameAs            string // serve_mixed: the final owl:sameAs dump
	epochs            uint64 // serve_mixed: snapshot epochs published
	result            *minoaner.Result
	recovered         *minoaner.Result
	gauges            minoaner.Gauges
	spans             []span
	traced            bool
	corpus            int // which of the run's corpora the iteration ran on
}

// measure is one reported metric: the value, its unit, and the samples
// behind it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	summary
}

// runResult is one run of one workload: what the contract's JSON line
// and the full report are both printed from.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Iterations int                `json:"iterations"`
	Sizes      map[string]int     `json:"sizes"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"` // correctness-gate failures
	Metrics    map[string]measure `json:"metrics"`
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 }

func (r *runResult) set(name string, value float64, samples []float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("undeclared metric " + name)
	}
	s := summarize(samples)
	if len(samples) == 0 {
		s = summary{Median: value, Q1: value, Q3: value, N: 1}
	}
	r.Metrics[name] = measure{Value: value, Unit: d.unit, summary: s}
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload sets a workload up from the seed, repeats its scenario in
// fresh processes for the given time (and at least minIters times),
// checks the outputs and returns the end-to-end metrics. A traced run
// alternates untraced and traced iterations, then measures each layer
// from outside on the same inputs, and returns the per-layer metrics.
func (b *bench) runWorkload(w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: make(map[string]measure)}

	// Every iteration on a corpus is checked against the others on it, so
	// a run has no more corpora than half its iterations; a traced run
	// stays on one, so that traced and untraced iterations compare.
	ins := make([]*inputs, min(corporaPerRun, max(1, w.minIters/2)))
	if traced {
		ins = ins[:1]
	}
	var serverBin string
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		var err error
		for k := range ins {
			if ins[k], err = prepare(w, corpusSeed(seed, k), filepath.Join(b.work, w.name, fmt.Sprintf("in%d.%d", i, k))); err != nil {
				return nil, err
			}
		}
		if w.served {
			if serverBin, err = b.buildServer(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.Sizes = map[string]int{
		"corpora": len(ins), "entities": w.entities, "descriptions": len(ins[0].corpus.descs),
		"loaded_before_start": ins[0].seedN, "waves": len(ins[0].waves), "wave_size": w.batch,
	}

	// A traced run spends half its time on scenario iterations —
	// alternately untraced and traced, at least one of each — and leaves
	// the rest to the layer probes.
	minIters, budget := w.minIters, seconds
	if traced {
		minIters, budget = max(2, min(minIters, 4)), seconds/2
	}
	var its []*iteration
	var took []float64
	start := time.Now()
	for i := 0; i < minIters || time.Since(start).Seconds()+median(took) <= budget; i++ {
		t := time.Now()
		dir := filepath.Join(b.work, w.name, fmt.Sprintf("it%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var it *iteration
		var err error
		k := i % len(ins)
		if w.served {
			it, err = b.iterateServe(serverBin, ins[k], corpusSeed(seed, k))
		} else {
			it, err = b.iterateLife(w, ins[k], dir, traced && i%2 == 1)
		}
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", w.name, i, err)
		}
		it.traced, it.corpus = traced && i%2 == 1, k
		os.RemoveAll(dir) // a durable iteration leaves tens of MB of segments
		its = append(its, it)
		took = append(took, time.Since(t).Seconds())
	}

	res.Iterations = len(its)
	for _, it := range its {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	if err := b.gate(w, ins, its, res); err != nil {
		return nil, err
	}
	if traced {
		if err := b.layerMetrics(w, ins[0], its, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	endToEndMetrics(w, its, setups, res)
	return res, nil
}

// iterateLife is one iteration of the in-process workloads: a child
// runs the session's life; for a durable workload it is then killed and
// a second child recovers the log.
func (b *bench) iterateLife(w workload, in *inputs, dir string, traced bool) (*iteration, error) {
	spec := lifeSpec{KBs: in.kbs, WavesPath: in.wavesPath, Trace: traced, ResultPath: filepath.Join(dir, "result.json")}
	if w.durable {
		spec.WALDir, spec.StoreDir, spec.Hold = filepath.Join(dir, "wal"), filepath.Join(dir, "store"), true
		for _, d := range []string{spec.WALDir, spec.StoreDir} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
	}
	if traced && len(in.waves) == 0 {
		// The batch scenario has no waves of its own; the traced run adds
		// a short tail so the session's streaming calls are measured at
		// batch scale too. It runs after RunS is taken.
		spec.ProbeWavesPath = filepath.Join(dir, "probe.json")
		if err := writeJSON(spec.ProbeWavesPath, probeWaves(in)); err != nil {
			return nil, err
		}
	}
	rep, result, use, err := b.runChild(spec, dir)
	if err != nil {
		return nil, err
	}
	it := &iteration{
		readyS: rep.ReadyS, runS: rep.RunS, use: use,
		ingestMS: rep.IngestMS, evictMS: rep.EvictMS,
		processed: rep.Processed, live: rep.Live,
		attempted: rep.Attempted,
		exact:     digest(result), result: result, gauges: rep.Gauges, spans: rep.Spans,
	}
	if !w.durable {
		return it, nil
	}
	walBytes, err := dirSize(spec.WALDir)
	if err != nil {
		return nil, err
	}
	storeBytes, err := dirSize(spec.StoreDir)
	if err != nil {
		return nil, err
	}
	it.storedBytes = walBytes + storeBytes
	// The second process sees only what the killed one left on disk.
	spec.Hold, spec.WavesPath, spec.ResultPath = false, "", filepath.Join(dir, "recovered.json")
	rec, recovered, _, err := b.runChild(spec, dir)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	it.recoverS, it.recovered = rec.ReadyS, recovered
	it.attempted += rec.Attempted
	for i := range rec.Spans {
		if rec.Spans[i].Name == "run" {
			rec.Spans[i].Name = "recover" // the second process's life is the recovery, not a run
		}
	}
	it.spans = appendSpans(it.spans, rec.Spans)
	return it, nil
}

// probeWaves is the tail a traced batch iteration appends. The corpus is
// fully loaded, so there is nothing new to ingest: the tail evicts the
// 16 oldest descriptions and ingests them back.
func probeWaves(in *inputs) []wave {
	chunk := in.corpus.descs[:16]
	refs := make([]minoaner.Ref, len(chunk))
	for i, d := range chunk {
		refs[i] = minoaner.Ref{KB: d.KB, URI: d.URI}
	}
	return []wave{{Evict: refs}, {Ingest: chunk}}
}

// gate is the correctness check every run ends with; a failure is
// recorded as a problem and makes the run incorrect.
func (b *bench) gate(w workload, ins []*inputs, its []*iteration, res *runResult) error {
	var f1s []float64
	for k, in := range ins {
		var on []*iteration
		for _, it := range its {
			if it.corpus == k {
				on = append(on, it)
			}
		}
		f1, err := b.gateCorpus(w, k, in, on, res)
		if err != nil {
			return err
		}
		f1s = append(f1s, f1)
	}
	f1 := mean(f1s)
	if f1 < w.f1Floor {
		res.problem("f1 %.4f below the floor %.2f", f1, w.f1Floor)
	}
	res.set("f1", f1, f1s)
	return nil
}

// gateCorpus checks the iterations that ran on one corpus and returns
// the F1 of their (identical) final clusters.
func (b *bench) gateCorpus(w workload, k int, in *inputs, its []*iteration, res *runResult) (float64, error) {
	for i, it := range its {
		if it.exact != its[0].exact {
			res.problem("corpus %d: iteration %d produced a different result than the first", k, i)
		}
	}
	last := its[len(its)-1]
	live := survivors(in.corpus.descs, in.seedN, in.waves)
	var clusters []minoaner.Cluster
	switch {
	case w.served:
		// The served session must equal an in-process one fed the same
		// ops: run the stream scenario once, compare the owl:sameAs dumps.
		dir := filepath.Join(b.work, w.name, fmt.Sprintf("oracle%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		_, oracle, _, err := b.runChild(lifeSpec{KBs: in.kbs, WavesPath: in.wavesPath, ResultPath: filepath.Join(dir, "result.json")}, dir)
		if err != nil {
			return 0, fmt.Errorf("serve oracle: %w", err)
		}
		if !sameLines(last.sameAs, oracle.SameAs()) {
			res.problem("corpus %d: GET /sameas differs from an in-process session fed the same ops", k)
		}
		if last.live != len(live) {
			res.problem("corpus %d: server holds %d descriptions, want %d", k, last.live, len(live))
		}
		clusters = oracle.Clusters
	case w.durable:
		// Recovery replays the log's mutations and resolves once, which
		// by the library's equivalence guarantee is a from-scratch
		// resolution of the survivors; the pre-kill result is not — it
		// spent comparisons between waves — so that is the oracle.
		want, err := fromScratch(live)
		if err != nil {
			return 0, fmt.Errorf("from-scratch oracle: %w", err)
		}
		for i, it := range its {
			if canonical(it.recovered) != canonical(want) {
				res.problem("corpus %d: iteration %d: recovered result differs from a from-scratch resolution of the surviving corpus", k, i)
			}
		}
		if n := last.recovered.Stats.Descriptions; n != len(live) {
			res.problem("corpus %d: recovered %d descriptions, want %d", k, n, len(live))
		}
		clusters = last.result.Clusters
	default:
		if last.live != len(live) {
			res.problem("corpus %d: session holds %d descriptions, want %d", k, last.live, len(live))
		}
		clusters = last.result.Clusters
	}
	return pairF1(in.corpus, live, clusters), nil
}

func sameLines(a, b string) bool {
	split := func(s string) []string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		sort.Strings(lines)
		return lines
	}
	la, lb := split(a), split(b)
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}

// endToEndMetrics reduces the iterations of an untraced run to the
// end-to-end metrics the workload reports.
func endToEndMetrics(w workload, its []*iteration, setups []float64, res *runResult) {
	// once reports one value per iteration: the median of each corpus's
	// iterations, averaged over the corpora. The summary beside it is of
	// the iterations' values rescaled to that average, so its quartiles
	// show how far iterations on one corpus scatter, not how far the
	// corpora differ.
	once := func(name string, of func(*iteration) float64) {
		byCorpus := make(map[int][]float64)
		for _, it := range its {
			byCorpus[it.corpus] = append(byCorpus[it.corpus], of(it))
		}
		var medians []float64
		for _, xs := range byCorpus {
			medians = append(medians, median(xs))
		}
		value := mean(medians)
		var rescaled []float64
		for _, it := range its {
			rescaled = append(rescaled, of(it)*value/median(byCorpus[it.corpus]))
		}
		res.set(name, value, rescaled)
	}
	// pooled reports a percentile of samples pooled over the iterations;
	// the summary beside it is the same percentile taken per iteration,
	// so its quartiles say how far the figure moves between iterations,
	// not how far single operations scatter. A percentile with fewer
	// than tailMinBeyond pooled samples beyond it is not reported.
	pooled := func(name string, p float64, of func(*iteration) []float64) {
		var all, each []float64
		for _, it := range its {
			all = append(all, of(it)...)
			v, _ := percentile(of(it), p)
			each = append(each, v)
		}
		if v, ok := percentile(all, p); ok || p == 0.5 {
			res.set(name, v, each)
		}
	}
	res.set("setup_s", median(setups), setups)
	once("run_s", func(it *iteration) float64 { return it.runS })
	once("descs_per_cpu_s", func(it *iteration) float64 { return float64(it.processed) / it.use.cpuS })
	once("peak_rss_mb", func(it *iteration) float64 { return it.use.rssMB })
	once("recover_s", func(it *iteration) float64 {
		if w.durable {
			return it.recoverS
		}
		return it.readyS
	})
	res.set("failed_ratio", float64(res.Failed)/float64(res.Attempted), nil)
	if w.ingestWaves > 0 {
		pooled("ingest_wave_p50_ms", 0.50, func(it *iteration) []float64 { return it.ingestMS })
		pooled("ingest_wave_p90_ms", 0.90, func(it *iteration) []float64 { return it.ingestMS })
		pooled("evict_wave_p50_ms", 0.50, func(it *iteration) []float64 { return it.evictMS })
	}
	if w.durable {
		once("stored_bytes_per_desc", func(it *iteration) float64 { return float64(it.storedBytes) / float64(it.live) })
	}
	if w.served {
		pooled("read_p50_ms", 0.50, func(it *iteration) []float64 { return it.readMS })
		pooled("read_p95_ms", 0.95, func(it *iteration) []float64 { return it.readMS })
		pooled("write_p50_ms", 0.50, func(it *iteration) []float64 { return it.writeMS })
	}
}
