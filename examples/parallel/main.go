// parallel drives the full pipeline — token blocking, block cleaning,
// graph construction, pruning, and progressive matching — through
// the parallel engines over an increasing worker count. The front-end
// sweeps the engine layer (internal/pipeline): the sequential
// reference and the shared-memory parallel engine. The matching sweep
// then drives the resolver (internal/core) over the pruned comparisons
// with a widening value-similarity pre-pass. Both sweeps print wall
// clocks and verify the parallel property end to end: every engine and
// every worker count produces the identical pruned blocking graph and
// a bit-identical progressive trace — what makes the multicore
// realization a safe substitute for the sequential reference.
//
//	go run ./examples/parallel
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
	"repro/internal/tokenize"
)

func main() {
	world, err := datagen.Generate(datagen.TwoKBs(3, 800, datagen.Center(), datagen.Center()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s\n\n", world.Collection.Stats())

	opt := pipeline.Options{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
		Scheme:      metablocking.ECBS,
		Pruning:     metablocking.WNP,
	}

	// Warm the shared token cache once, outside any timed run:
	// whichever engine ran first would otherwise pay tokenization for
	// everyone after it, skewing the sweep. The timings below compare
	// the engines' index building, cleaning, graph, and pruning work.
	world.Collection.WarmTokens(opt.Tokenize, 4)

	var refSet bool
	var refBlocks, refEdges int
	var refWeight float64
	check := func(engine string, workers int, fe *pipeline.FrontEnd, wall time.Duration) {
		sum := 0.0
		for _, e := range fe.Edges {
			sum += e.Weight
		}
		fmt.Printf("%-12s  %-8d  %-10s  %-8d  %-8d  %-10.1f\n",
			engine, workers, wall.Round(time.Millisecond),
			fe.Blocks.NumBlocks(), len(fe.Edges), sum)
		if !refSet {
			refSet = true
			refBlocks, refEdges, refWeight = fe.Blocks.NumBlocks(), len(fe.Edges), sum
			return
		}
		if fe.Blocks.NumBlocks() != refBlocks || len(fe.Edges) != refEdges || sum != refWeight {
			log.Fatalf("%s with %d workers changed the result: %d blocks, %d edges (Σ %.3f) vs %d, %d (Σ %.3f)",
				engine, workers, fe.Blocks.NumBlocks(), len(fe.Edges), sum,
				refBlocks, refEdges, refWeight)
		}
	}

	fmt.Printf("%-12s  %-8s  %-10s  %-8s  %-8s  %-10s\n",
		"engine", "workers", "wall", "blocks", "edges", "Σweight")

	run := func(eng pipeline.Engine, workers int) *pipeline.FrontEnd {
		start := time.Now()
		fe, err := pipeline.Run(eng, world.Collection, opt)
		if err != nil {
			log.Fatal(err)
		}
		check(eng.Name(), workers, fe, time.Since(start))
		return fe
	}

	// The sequential reference first: the oracle the parallel engines
	// must reproduce bit for bit. Its pruned graph also feeds the
	// matching sweep below.
	fe := run(pipeline.Sequential{}, 1)

	// Shared-memory engine: parallel tokenization and the chunked
	// graph kernel around the reference stages.
	for _, workers := range []int{2, 4, 8} {
		run(pipeline.Shared{Workers: workers}, workers)
	}

	fmt.Println("\nevery engine, every worker count: identical pruned graph")

	// Matching stage: the resolver over the pruned comparisons of the
	// sequential reference run. With more than one worker, a pre-pass
	// computes every queued pair's TF-IDF cosine in parallel; the
	// serial loop then replays the exact sequential schedule, so the
	// trace must match the sequential resolver step for step, in every
	// field.
	matcher := match.NewMatcher(world.Collection, match.DefaultOptions())

	fmt.Printf("\n%-12s  %-8s  %-10s  %-12s  %-8s  %-10s\n",
		"matching", "workers", "wall", "comparisons", "matches", "Σgain")
	var ref *core.Result
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		res := core.NewResolver(matcher, fe.Edges, core.Config{Workers: workers}).Run()
		wall := time.Since(start)
		fmt.Printf("%-12s  %-8d  %-10s  %-12d  %-8d  %-10.1f\n",
			"pre-pass", workers, wall.Round(time.Millisecond),
			res.Comparisons, res.Matches, res.TotalGain)
		if ref == nil {
			ref = res // workers=1 is the sequential reference loop
			continue
		}
		if len(res.Trace) != len(ref.Trace) {
			log.Fatalf("%d workers changed the trace length: %d vs %d", workers, len(res.Trace), len(ref.Trace))
		}
		for i := range ref.Trace {
			if res.Trace[i] != ref.Trace[i] {
				log.Fatalf("%d workers changed step %d: %+v vs %+v", workers, i, res.Trace[i], ref.Trace[i])
			}
		}
	}

	fmt.Println("\nevery worker count: bit-identical progressive trace")
}
