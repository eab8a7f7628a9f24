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
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run parses args and prints the selected tables to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	id := fs.String("id", "", "run one experiment (F1, T1–T4, T6, F2–F4); empty = all")
	seed := fs.Int64("seed", 2016, "workload seed")
	scale := fs.Int("scale", 1, "multiply workload sizes by this factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1")
	}
	n := func(base int) int { return base * *scale }

	// In run order; -id picks one by name.
	tables := []struct {
		id  string
		run func() *experiments.Table
	}{
		{"F1", func() *experiments.Table { return experiments.F1Pipeline(*seed, n(300)) }},
		{"T1", func() *experiments.Table { return experiments.T1Blocking(*seed, []int{n(200), n(400)}) }},
		{"T2", func() *experiments.Table { return experiments.T2BlockCleaning(*seed, n(400)) }},
		{"T3", func() *experiments.Table { return experiments.T3MetaBlocking(*seed, n(300)) }},
		{"F2", func() *experiments.Table { return experiments.F2Progressive(*seed, n(300)) }},
		{"F3", func() *experiments.Table { return experiments.F3Benefits(*seed, n(300)) }},
		{"T4", func() *experiments.Table { return experiments.T4NeighborEvidence(*seed, n(300)) }},
		{"F4", func() *experiments.Table {
			return experiments.F4Scalability(*seed, []int{n(100), n(200), n(400), n(800)})
		}},
		{"T6", func() *experiments.Table { return experiments.T6DirtyER(*seed, n(300)) }},
	}

	if *id == "" {
		for _, e := range tables {
			e.run().Fprint(w)
		}
		return nil
	}
	key := strings.ToUpper(*id)
	var ids []string
	for _, e := range tables {
		if e.id == key {
			e.run().Fprint(w)
			return nil
		}
		ids = append(ids, e.id)
	}
	return fmt.Errorf("unknown experiment %q (want one of %s)", *id, strings.Join(ids, ", "))
}
