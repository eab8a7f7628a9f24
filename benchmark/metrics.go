package main

// metricDef names one metric of the benchmark of record. The names are
// final: later issues cite them.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
	// bound is the share of the base median by which the metric may
	// worsen, on the same seed, before compare calls it regressed; a
	// metric whose run-to-run spread exceeds its bound is unresolved,
	// never unchanged.
	bound float64
	// absolute, when set, replaces bound in compare by a fixed amount:
	// deterministic quality ratios are held to ±0.005, not to a share.
	absolute float64
	// gated metrics are measured by every workload, so BENCHMARK.json
	// lists them and the acceptance driver bounds them; the others are
	// printed for the workloads they apply to.
	gated bool
	// acrossSeeds is a gated metric's bound in BENCHMARK.json. The
	// acceptance driver takes a metric's spread over runs on different
	// seeds, which differ by more than repeats of one seed do, and accepts
	// the benchmark only while that spread stays within the bound: so this
	// is at least three times the widest seed-to-seed spread measured on
	// any workload (see README, Repeatability), and at most 0.25.
	acrossSeeds float64
	workloads   []string // nil = every workload
}

var (
	streams    = []string{"stream_mem", "stream_durable", "serve_mixed"}
	durable    = []string{"stream_durable"}
	servedOnly = []string{"serve_mixed"}
	batch      = []string{"batch_lod"}
)

// endToEnd lists what a user of the system would see.
var endToEnd = []metricDef{
	// corpus generation, input files, op list and (serve_mixed) the server build — everything before the timed section; median of several set-ups
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true, acrossSeeds: 0.25},
	// wall time of one scenario iteration: process start → last Resume returned; serve_mixed: the writer's replay of the waves under read load
	{name: "run_s", unit: "s", better: "lower", bound: 0.10, gated: true, acrossSeeds: 0.15},
	// descriptions loaded + ingested + evicted ÷ the process's user+system CPU seconds
	{name: "descs_per_cpu_s", unit: "1/s", better: "higher", bound: 0.10, gated: true, acrossSeeds: 0.15},
	// peak resident set (VmHWM) of the process under test
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, gated: true, acrossSeeds: 0.15},
	// a new process → a session that can answer: Open on the SIGKILLed log (stream_durable), load + Start from N-Triples (batch_lod, stream_mem), spawn → serving (serve_mixed)
	{name: "recover_s", unit: "s", better: "lower", bound: 0.10, gated: true, acrossSeeds: 0.25},
	// pairwise F1 of the final clusters against the datagen ground truth over the live descriptions
	{name: "f1", unit: "ratio", better: "higher", absolute: 0.005, gated: true, acrossSeeds: 0.15},
	// batch handed to Ingest → SyncWAL → Resume(0) returned, pooled over iterations; serve_mixed: POST /ingest + POST /resume
	{name: "ingest_wave_p50_ms", unit: "ms", better: "lower", bound: 0.10, workloads: streams},
	// the same, 90th percentile
	{name: "ingest_wave_p90_ms", unit: "ms", better: "lower", bound: 0.15, workloads: streams},
	// the same for evict waves
	{name: "evict_wave_p50_ms", unit: "ms", better: "lower", bound: 0.10, workloads: streams},
	// (WAL bytes + store bytes on disk) ÷ live descriptions at the kill; one client, no timers, so it repeats exactly
	{name: "stored_bytes_per_desc", unit: "B", better: "lower", bound: 0.01, workloads: durable},
	// open-loop GET /resolve latency from the request's due time
	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.10, workloads: servedOnly},
	// the same, 95th percentile
	{name: "read_p95_ms", unit: "ms", better: "lower", bound: 0.15, workloads: servedOnly},
	// POST /ingest|/evict sent → 2xx with the new epoch
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.10, workloads: servedOnly},
	// operations failed, refused or over their latency limit ÷ attempted
	{name: "failed_ratio", unit: "ratio", better: "lower", absolute: 1e-9},
	// area under the progressive recall curve over the comparison trace (traced run)
	{name: "recall_auc", unit: "ratio", better: "higher", absolute: 0.005, workloads: batch},
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
