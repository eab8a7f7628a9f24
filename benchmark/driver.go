package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/eval"
	"repro/internal/kb"
)

// childTimeout bounds every process the benchmark starts; the slowest
// (a traced batch iteration) takes seconds.
const childTimeout = 150 * time.Second

// bench is what one benchmark process works with: where the checkout
// is, where it may write, and the binaries it drives.
type bench struct {
	root string    // checkout root (holds benchmark/, cmd/, BENCHMARK.json)
	work string    // this process's scratch directory, removed on exit
	exe  string    // the benchmark's own binary, re-run as the scenario child
	rec  *recorder // spans of this process's traced runs, written out at exit
}

func newBench() (*bench, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := cwd
	if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err != nil {
		root = filepath.Dir(cwd) // run from inside benchmark/
		if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err != nil {
			return nil, errors.New("run from the repository root or from benchmark/")
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run")
	if err != nil {
		return nil, err
	}
	return &bench{root: root, work: work, exe: exe}, nil
}

func (b *bench) close() { os.RemoveAll(b.work) }

// childEnv is the environment of every process under test: the
// caller's, minus the two variables minoaner.Defaults reads for CI.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "MINOANER_STORE=") || strings.HasPrefix(kv, "MINOANER_MR_RUNNER=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// inputs is everything one workload's scenario reads, generated from
// the seed and written under one directory.
type inputs struct {
	corpus    *corpus
	seedN     int      // descriptions loaded before Start
	kbs       []kbFile // those descriptions as N-Triples, one file per KB
	waves     []wave
	wavesPath string
}

// prepare generates a workload's inputs from the seed. It is the set-up
// the benchmark times as setup_s.
func prepare(w workload, seed int64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := newCorpus(seed, w.entities)
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: c, seedN: int(float64(len(c.descs)) * w.seedShare)}
	if in.kbs, err = writeKBs(dir, c.descs[:in.seedN]); err != nil {
		return nil, err
	}
	if w.ingestWaves > 0 {
		in.waves = makeWaves(c.descs, in.seedN, w.ingestWaves, w.batch)
		in.wavesPath = filepath.Join(dir, "waves.json")
		if err := writeJSON(in.wavesPath, in.waves); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// usage is what the kernel accounted to one process under test.
type usage struct {
	cpuS  float64 // user + system CPU seconds, from the child's rusage
	rssMB float64 // peak resident set, from its VmHWM
}

// cpuSeconds is the user + system CPU time of a finished child.
func cpuSeconds(cmd *exec.Cmd) float64 {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from
// /proc. The child's ru_maxrss would not do: Go starts children with
// vfork, and on exec Linux folds the high-water mark of the address
// space the child is leaving — the benchmark's own — into the child's
// ru_maxrss, so a driver that has grown to 600 MB makes every child
// report at least 600 MB.
func peakRSSMB(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runChild runs one scenario iteration in a fresh process of the
// benchmark's own binary and returns what it reported, its result and
// its rusage. With spec.Hold the child is SIGKILLed once it has
// reported: it never closes its session.
func (b *bench) runChild(spec lifeSpec, dir string) (*lifeReport, *minoaner.Result, usage, error) {
	specPath := filepath.Join(dir, "spec.json")
	if err := writeJSON(specPath, spec); err != nil {
		return nil, nil, usage{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "child", specPath)
	cmd.Env = childEnv()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, usage{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, usage{}, err
	}
	var rep lifeReport
	decErr := json.NewDecoder(bufio.NewReader(stdout)).Decode(&rep)
	if spec.Hold && decErr == nil {
		cmd.Process.Kill() // SIGKILL: no Close, no flush beyond what SyncWAL made durable
	}
	waitErr := cmd.Wait()
	if decErr != nil {
		return nil, nil, usage{}, fmt.Errorf("scenario child: %v: %v: %s", decErr, waitErr, strings.TrimSpace(stderr.String()))
	}
	if waitErr != nil && !spec.Hold {
		return nil, nil, usage{}, fmt.Errorf("scenario child: %v: %s", waitErr, strings.TrimSpace(stderr.String()))
	}
	var res minoaner.Result
	if err := readJSON(spec.ResultPath, &res); err != nil {
		return nil, nil, usage{}, err
	}
	return &rep, &res, usage{cpuS: cpuSeconds(cmd), rssMB: rep.PeakRSSMB}, nil
}

// canonical reduces a result to the facts that survive a re-numbering
// of descriptions — the unordered set of matched pairs and the set of
// clusters — so a streamed, recovered or served session can be compared
// with a from-scratch one.
func canonical(res *minoaner.Result) string {
	key := func(r minoaner.Ref) string { return r.KB + " " + r.URI }
	lines := make([]string, 0, len(res.Matches)+len(res.Clusters))
	for _, m := range res.Matches {
		a, b := key(m.A), key(m.B)
		if b < a {
			a, b = b, a
		}
		lines = append(lines, "match "+a+" "+b)
	}
	for _, cl := range res.Clusters {
		members := make([]string, len(cl))
		for i, r := range cl {
			members[i] = key(r)
		}
		sort.Strings(members)
		lines = append(lines, "cluster "+strings.Join(members, " "))
	}
	sort.Strings(lines)
	return digest(lines)
}

// fromScratch resolves descs in a fresh in-process session: the oracle
// a recovered session must equal.
func fromScratch(descs []minoaner.Description) (*minoaner.Result, error) {
	p := minoaner.New(sessionConfig(lifeSpec{}))
	if err := p.Add(descs); err != nil {
		return nil, err
	}
	return p.Resolve()
}

// truthOver is the ground truth restricted to the live descriptions,
// over the ids of the corpus's world.
func truthOver(c *corpus, live []minoaner.Description) *kb.GroundTruth {
	entityOf := make(map[int]int)
	for e, ids := range c.world.DescsOf {
		for _, id := range ids {
			entityOf[id] = e
		}
	}
	byEntity := make(map[int][]int)
	for _, d := range live {
		id := c.worldID[minoaner.Ref{KB: d.KB, URI: d.URI}]
		byEntity[entityOf[id]] = append(byEntity[entityOf[id]], id)
	}
	truth := kb.NewGroundTruth()
	for _, ids := range byEntity {
		truth.AddClass(ids...)
	}
	return truth
}

// pairF1 is the pairwise F1 of the clusters against the datagen ground
// truth, over the descriptions in live: every cross-KB pair inside a
// predicted cluster is a predicted match.
func pairF1(c *corpus, live []minoaner.Description, clusters []minoaner.Cluster) float64 {
	col := c.world.Collection
	var pairs []blocking.Pair
	for _, cl := range clusters {
		for i := range cl {
			for j := i + 1; j < len(cl); j++ {
				a, b := c.worldID[cl[i]], c.worldID[cl[j]]
				if col.CrossKB(a, b) {
					pairs = append(pairs, blocking.MakePair(a, b))
				}
			}
		}
	}
	return eval.EvaluateMatches(col, truthOver(c, live), pairs).F1
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}
