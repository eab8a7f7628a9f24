package main

// workload is one session lifecycle the benchmark repeats. Every
// iteration runs in a fresh process, so CPU seconds and peak RSS are
// the child's own, heaps never leak between iterations, and a crash is
// a real SIGKILL.
type workload struct {
	name string
	// why is the one-line reason the workload exists, as BENCHMARK.json
	// records it; the comment beside each definition says more.
	why string
	// entities sizes the datagen LOD-cloud world (≈ 2.6 descriptions per
	// entity across its four KBs).
	entities int
	// seedShare is the part of the corpus loaded before Start; the rest
	// is held back for waves.
	seedShare float64
	// ingestWaves batches of batch descriptions follow Start, with one
	// evict wave of the batch oldest after every second ingest.
	ingestWaves, batch int
	// durable runs the session through Open (WAL, fsync per wave, disk
	// store), kills it after the last wave and recovers it in a second
	// process.
	durable bool
	// served runs the session inside `minoaner serve` and drives it over
	// HTTP: one open-loop reader, one closed-loop writer.
	served bool
	// minIters is how many iterations a run makes even when --seconds is
	// used up first.
	minIters int
	// f1Floor is the correctness gate's quality floor: a run whose final
	// clusters score below it is wrong, however fast. Recorded from ten
	// seeds at full size with room to spare; quick() drops it, since tiny
	// corpora score anywhere.
	f1Floor float64
}

// recallAUCFloor is the same for batch_lod's progressive recall curve.
const recallAUCFloor = 0.30

// Sizes are scaled from the issue's probe sizes so that minIters
// iterations — three on each of a run's three corpora, so that a
// per-corpus median shrugs off one slow iteration — fit one 15 s run on
// two cores (the durable and served workloads take ≈ 25 s); quick()
// shrinks them further.
var workloads = []workload{
	// The paper's batch pipeline: N-Triples → LoadKB×4 → Start →
	// Resume(0), all in RAM. The from-scratch front end (block, clean,
	// graph, prune) and matching do nearly all the work; WAL, store,
	// server and every incremental path do none. Engine choice and the
	// serial committer must show here.
	{
		name:     "batch_lod",
		why:      "from-scratch front end and matching do all the work; WAL, store, server and delta paths do none",
		entities: 2000, seedShare: 1, minIters: 9, f1Floor: 0.55,
	},
	// The same front-end layers used the other way: half the corpus is
	// loaded and resolved, then ingest and evict waves maintain the
	// index, cleaning, graph, pruning and queue by delta instead of by a
	// from-scratch pass; parse and full build do little. A change that
	// speeds Run at the cost of Ingest/Evict (or the reverse) shows here
	// against batch_lod. No WAL, no store: the control for every
	// durability change.
	{
		name:     "stream_mem",
		why:      "delta maintenance (index splice, re-clean, graph update, re-prune, reseed) instead of a full pass; control for durability",
		entities: 600, seedShare: 0.5, ingestWaves: 16, batch: 16, minIters: 9, f1Floor: 0.45,
	},
	// The identical op sequence through Open with fsync per wave and the
	// disk store, ended by SIGKILL and recovered by a second process.
	// wal, store, the kb cold caches and replay do the extra work over an
	// otherwise equal run, so (stream_durable − stream_mem) is their
	// cost; LRU and replay-coalescing changes must show here and nowhere
	// else.
	{
		name:     "stream_durable",
		why:      "same ops as stream_mem through WAL, fsync and disk store, then SIGKILL and recovery: isolates durability cost",
		entities: 600, seedShare: 0.5, ingestWaves: 16, batch: 16, durable: true, minIters: 9, f1Floor: 0.45,
	},
	// The only workload where the server layer (validation, writer queue,
	// wave batching, snapshot rebuild, epoch swap) does work and reads
	// run beside writes: connection 1 issues GET /resolve open-loop at a
	// fixed rate, timed from each request's due time; connection 2 is a
	// closed-loop writer replaying the stream_mem waves as POST /ingest
	// or /evict followed by POST /resume. A write-path gain that stalls
	// readers, or a snapshot change that slows commits, shows here.
	{
		name:     "serve_mixed",
		why:      "minoaner serve under open-loop reads beside a closed-loop write stream: the only load on server, snapshots and epoch swaps",
		entities: 600, seedShare: 0.5, ingestWaves: 16, batch: 16, served: true, minIters: 9, f1Floor: 0.45,
	},
}

// Open-loop read load of serve_mixed. No max-sustainable-rate search:
// on two cores shared with the generator it would measure the
// scheduler; one fixed rate with a stated limit is the honest number.
const (
	readRate    = 200   // GET /resolve per second
	readLimitMS = 250.0 // a read slower than this, from its due time, counts as failed
)

// quick returns the workload at smoke-test size: every phase still
// runs, once.
func (w workload) quick() workload {
	w.entities = min(w.entities, 150)
	w.ingestWaves = min(w.ingestWaves, 4)
	w.minIters = 1
	w.f1Floor = 0
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
