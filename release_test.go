package minoaner_test

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
)

// graphWatch wraps a session's engine: every graph Build returns gets a
// finalizer that counts it collected, and Prune records the edge count
// and footprint of the graph it prunes — the latest pass's. The
// finalizer holds no reference to the graph, so the count rises only
// once nothing else does either.
type graphWatch struct {
	pipeline.Engine
	built        int
	freed        atomic.Int64
	edges, bytes int
}

func (w *graphWatch) Build(col *blocking.Collection, scheme metablocking.Scheme) (*metablocking.Graph, error) {
	g, err := w.Engine.Build(col, scheme)
	if err != nil {
		return nil, err
	}
	w.built++
	runtime.SetFinalizer(g, func(*metablocking.Graph) { w.freed.Add(1) })
	return g, nil
}

func (w *graphWatch) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	w.edges, w.bytes = g.NumEdges(), g.Footprint()
	return w.Engine.Prune(g, alg, opts)
}

// collected reports whether every graph built so far has been
// finalized, forcing collections until it has or a deadline passes
// (finalizers run on their own goroutine, after the cycle that found
// the graph unreachable).
func (w *graphWatch) collected() bool {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if int(w.freed.Load()) == w.built {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGraphReleasedAfterPass checks that the blocking graph does not
// outlive its front-end pass: after Start and after every streaming
// wave — ingest and evict alike, with no Resume in between as well as
// after one — every graph any pass built is unreachable, so the
// session keeps no front end between waves; the graph gauges equal the
// latest pass's graph's edge count and footprint and stay put through
// Resume; and under the inert Store "disk" nothing is written to
// StoreDir.
func TestGraphReleasedAfterPass(t *testing.T) {
	ops := recoveryOps(t, 12)
	if !ops[1].start {
		t.Fatal("workload's second op is not Start")
	}
	for _, mode := range []string{"", "disk"} {
		t.Run("store="+mode, func(t *testing.T) {
			cfg := minoaner.Defaults()
			var storeDir string
			if mode == "disk" {
				storeDir = t.TempDir()
			}
			cfg.Store, cfg.StoreDir = mode, storeDir
			w := &graphWatch{}
			p := minoaner.NewWrapped(cfg, func(e pipeline.Engine) pipeline.Engine {
				w.Engine = e
				return w
			})
			defer p.Close()
			applyOp(t, p, ops[0])
			applyOp(t, p, ops[1]) // Start
			s := p.Current()
			check := func(label string, passes int) minoaner.Gauges {
				t.Helper()
				if w.built != passes {
					t.Fatalf("%s: %d graphs built, want %d (one per pass)", label, w.built, passes)
				}
				if !w.collected() {
					t.Fatalf("%s: %d of %d graphs still reachable", label, w.built-int(w.freed.Load()), w.built)
				}
				g := s.Gauges()
				if g.GraphEdges == 0 || g.GraphEdges != w.edges || g.GraphBytes == 0 || g.GraphBytes != w.bytes {
					t.Fatalf("%s: gauges %d edges %d B, the pass's graph %d/%d",
						label, g.GraphEdges, g.GraphBytes, w.edges, w.bytes)
				}
				return g
			}
			check("after Start", 1)
			waves := map[string]int{}
			for i, op := range ops[2:] {
				kind := "ingest"
				if op.evict != nil || op.evictKB != "" {
					kind = "evict"
				}
				applyOp(t, p, op)
				waves[kind]++
				label := "wave " + kind
				want := check(label, 2+i)
				if i%2 == 0 {
					continue // the next wave lands with no Resume in between
				}
				if _, err := s.Resume(0); err != nil {
					t.Fatal(err)
				}
				if got := check(label+" + Resume", 2+i); got.GraphEdges != want.GraphEdges || got.GraphBytes != want.GraphBytes {
					t.Fatalf("%s: gauges after Resume %d edges %d B, before %d/%d",
						label, got.GraphEdges, got.GraphBytes, want.GraphEdges, want.GraphBytes)
				}
			}
			if waves["ingest"] == 0 || waves["evict"] == 0 {
				t.Fatalf("workload lacks an ingest or an evict wave: %v", waves)
			}
			if storeDir == "" {
				return
			}
			ents, err := os.ReadDir(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("inert store directory holds %d entries", len(ents))
			}
		})
	}
}

// TestPassStatsMatchFreshRun: the numbers a pass records — Stats'
// Blocks, BlockCandidates and PrunedEdges, Gauges' GraphEdges and
// GraphBytes — equal those of a fresh pipeline.Run over the session's
// collection, after Start, after every op of the recovery workload, and
// in the session Open recovers from its log.
func TestPassStatsMatchFreshRun(t *testing.T) {
	ops := recoveryOps(t, 12)
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	check := func(label string, p *minoaner.Pipeline) {
		t.Helper()
		s := p.Current()
		fe, err := pipeline.Run(pipeline.Select(1, false), s.Collection(), p.PipelineOptions())
		if err != nil {
			t.Fatal(err)
		}
		st, g := s.Snapshot().Stats(), s.Gauges()
		got := [5]int{st.Blocks, st.BlockCandidates, st.PrunedEdges, g.GraphEdges, g.GraphBytes}
		want := [5]int{fe.Blocks.NumBlocks(), fe.Graph.NumEdges(), len(fe.Edges), fe.Graph.NumEdges(), fe.Graph.Footprint()}
		if got != want {
			t.Fatalf("%s: blocks, candidates, pruned, graph edges, graph bytes = %v, a fresh run %v", label, got, want)
		}
	}
	dir := t.TempDir()
	p, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		applyOp(t, p, op)
		if p.Current() != nil {
			check(fmt.Sprintf("op %d", i), p)
		}
	}
	if _, err := p.Current().Resume(0); err != nil {
		t.Fatal(err)
	}
	check("after Resume", p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	check("recovered", rp)
}
