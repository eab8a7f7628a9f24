// Command benchmark is the repository's benchmark of record: four
// session-lifecycle workloads, end-to-end metrics measured untraced, and
// an outside-in per-layer trace. See README.md beside this file.
//
//	benchmark [-seed N] [-seconds S] [-runs R] [-quick] [-out file]   every workload, untraced then traced, R times
//	benchmark --workload W --seed N --seconds S --trace 0|1          one run, one JSON line last (BENCHMARK.json's contract)
//	benchmark compare base.json new.json                              one verdict per metric × workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed drives every corpus and op order unless -seed says
// otherwise.
const defaultSeed = 1

func main() {
	t0 := time.Now()
	if len(os.Args) > 2 && os.Args[1] == "child" {
		// One scenario iteration, in its own process (see lifecycle.go).
		if err := childMain(t0, os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	code, err := benchMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// meta is the host and input record every result file carries.
type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
}

// resultFile is what a full run writes and compare reads.
type resultFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

// benchMain runs one workload (the contract) or all of them (the full
// report). The exit code is 1 when a correctness gate failed.
func benchMain(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload and end with the contract's JSON line (default: every workload, untraced then traced)")
	seed := fs.Int64("seed", defaultSeed, "seed of every corpus and op order")
	seconds := fs.Float64("seconds", 15, "how long one run repeats its scenario")
	trace := fs.Int("trace", 0, "with -workload: 1 measures the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "full report: repeat every workload's untraced run this many times, so compare can take its spread across runs")
	quick := fs.Bool("quick", false, "smoke mode: tiny sizes, one iteration, every workload and gate")
	out := fs.String("out", "", "full report: result file (default benchmark/out/result.json)")
	fs.Parse(args)

	b, err := newBench()
	if err != nil {
		return 2, err
	}
	defer b.close()

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		if *quick {
			w = w.quick()
		}
		res, err := b.runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return 1, err
		}
		if err := b.writeTrace(); err != nil {
			return 1, err
		}
		printRun(res)
		printContractLine(res)
		if !res.correct() {
			return 1, nil
		}
		return 0, nil
	}

	secs := *seconds
	if *quick {
		secs = 0 // minIters decides
	}
	file := resultFile{Meta: meta{
		Commit: commit(b.root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: secs, Quick: *quick,
	}}
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d  seconds %g\n",
		file.Meta.Commit, file.Meta.GoVersion, file.Meta.NumCPU, file.Meta.GOMAXPROCS, *seed, secs)
	correct := true
	for r := 0; r < *runs; r++ {
		for _, w := range workloads {
			if *quick {
				w = w.quick()
			}
			for _, traced := range []bool{false, true} {
				if traced && r > 0 {
					continue // per-layer metrics carry no bound: one traced pass is enough
				}
				res, err := b.runWorkload(w, *seed, secs, traced)
				if err != nil {
					return 1, err
				}
				printRun(res)
				file.Runs = append(file.Runs, res)
				correct = correct && res.correct()
			}
		}
	}
	if err := b.writeTrace(); err != nil {
		return 1, err
	}
	path := *out
	if path == "" {
		path = filepath.Join(b.root, "benchmark", "out", "result.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 1, err
	}
	if err := writeJSON(path, file); err != nil {
		return 1, err
	}
	fmt.Println("results:", path)
	if !correct {
		fmt.Println("CORRECTNESS GATE FAILED")
		return 1, nil
	}
	return 0, nil
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (the acceptance driver's checkouts are plain directories).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints every metric of one run by name, with its unit and
// the samples behind it.
func printRun(res *runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("\n== %s  %s  seed %d  iterations %d  sizes %v\n", res.Workload, kind, res.Seed, res.Iterations, res.Sizes)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Printf("  median %.6g  q1 %.6g  q3 %.6g  n %d", m.Median, m.Q1, m.Q3, m.N)
		}
		fmt.Println()
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.correct())
	for _, p := range res.Problems {
		fmt.Println("  PROBLEM:", p)
	}
}

// printContractLine ends a single-workload run with the one JSON object
// BENCHMARK.json's contract asks for: every gated metric of the run's
// kind, each with its value and unit.
func printContractLine(res *runResult) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, make(map[string]metric)}
	for _, d := range defs {
		if !d.gated {
			continue
		}
		m, ok := res.Metrics[d.name]
		if !ok {
			line.Correct = false // a gated metric every workload must report is missing
			continue
		}
		line.Metrics[d.name] = metric{m.Value, m.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain data
	}
	fmt.Println(string(buf))
}
