// Command bench regenerates the reconstructed evaluation: every table
// and figure README "## Benchmarks" lists, printed as aligned text.
// internal/experiments' Shape tests pin what each table must show.
//
// Usage:
//
//	bench                 # all experiments, default seed
//	bench -id F2 -seed 7  # a single experiment
//	bench -scale 2        # double the workload sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	id := fs.String("id", "", "run one experiment (F1, T1–T6, F2–F4, A1–A6); empty = all")
	ablations := fs.Bool("ablations", false, "also run the A1–A6 ablations when -id is empty")
	seed := fs.Int64("seed", 2016, "workload seed")
	scale := fs.Int("scale", 1, "multiply workload sizes by this factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1")
	}
	n := func(base int) int { return base * *scale }

	runners := map[string]func() *experiments.Table{
		"F1": func() *experiments.Table { return experiments.F1Pipeline(*seed, n(300)) },
		"T1": func() *experiments.Table { return experiments.T1Blocking(*seed, []int{n(200), n(400)}) },
		"T2": func() *experiments.Table { return experiments.T2BlockCleaning(*seed, n(400)) },
		"T3": func() *experiments.Table { return experiments.T3MetaBlocking(*seed, n(300)) },
		"F2": func() *experiments.Table { return experiments.F2Progressive(*seed, n(300)) },
		"F3": func() *experiments.Table { return experiments.F3Benefits(*seed, n(300)) },
		"T4": func() *experiments.Table { return experiments.T4NeighborEvidence(*seed, n(300)) },
		"T5": func() *experiments.Table { return experiments.T5Parallel(*seed, n(400), []int{1, 2, 4, 8}) },
		"F4": func() *experiments.Table {
			return experiments.F4Scalability(*seed, []int{n(100), n(200), n(400), n(800)})
		},
		"T6": func() *experiments.Table { return experiments.T6DirtyER(*seed, n(300)) },
		"A1": func() *experiments.Table { return experiments.A1BlockingMethods(*seed, n(300)) },
		"A2": func() *experiments.Table { return experiments.A2NeighborWeight(*seed, n(300)) },
		"A3": func() *experiments.Table { return experiments.A3SchedulerComponents(*seed, n(300)) },
		"A4": func() *experiments.Table { return experiments.A4SchemeProgressive(*seed, n(300)) },
		"A5": func() *experiments.Table { return experiments.A5PruningReciprocal(*seed, n(300)) },
		"A6": func() *experiments.Table { return experiments.A6Clustering(*seed, n(300)) },
	}
	order := []string{"F1", "T1", "T2", "T3", "F2", "F3", "T4", "T5", "F4", "T6"}
	if *ablations {
		order = append(order, "A1", "A2", "A3", "A4", "A5", "A6")
	}

	if *id != "" {
		key := strings.ToUpper(*id)
		r, ok := runners[key]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s)", *id, strings.Join(order, ", "))
		}
		r().Fprint(os.Stdout)
		return nil
	}
	for _, key := range order {
		runners[key]().Fprint(os.Stdout)
	}
	return nil
}
