package minoaner_test

import (
	"os"
	"testing"

	minoaner "repro"
)

// TestGraphReleasedAfterPass checks that the blocking graph does not
// outlive its front-end pass: after Start and after every streaming
// wave — ingest and evict alike, with no Resume in between as well as
// after one — the pass's graph has already dropped its arrays, so
// matching never allocates beside it; the graph gauges read the pass's
// edge count and footprint and stay put through Resume; and under the
// inert Store "disk" nothing is written to StoreDir.
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
			p := minoaner.New(cfg)
			defer p.Close()
			applyOp(t, p, ops[0])
			applyOp(t, p, ops[1]) // Start
			s := p.Current()
			g := s.FrontGraph()
			if g.Edges != nil || g.NumEdges() == 0 {
				t.Fatalf("after Start: %d resident of %d edges, want the arrays released", len(g.Edges), g.NumEdges())
			}
			waves := map[string]int{}
			for i, op := range ops[2:] {
				kind := "ingest"
				if op.evict != nil || op.evictKB != "" {
					kind = "evict"
				}
				applyOp(t, p, op)
				prev := g
				if g = s.FrontGraph(); g == prev {
					t.Fatalf("wave %d (%s): no new front-end pass", i, kind)
				}
				waves[kind]++
				if g.Edges != nil {
					t.Fatalf("wave %d (%s): the pass's graph still holds %d edges", i, kind, len(g.Edges))
				}
				want := s.Gauges()
				if want.GraphEdges == 0 || want.GraphEdges != g.NumEdges() || want.GraphBytes == 0 || want.GraphBytes != g.Footprint() {
					t.Fatalf("wave %d (%s): gauges %d edges %d B, graph reports %d/%d",
						i, kind, want.GraphEdges, want.GraphBytes, g.NumEdges(), g.Footprint())
				}
				if i%2 == 0 {
					continue // the next wave lands with no Resume in between
				}
				if _, err := s.Resume(0); err != nil {
					t.Fatal(err)
				}
				if got := s.Gauges(); got.GraphEdges != want.GraphEdges || got.GraphBytes != want.GraphBytes {
					t.Fatalf("wave %d (%s): gauges after Resume %d edges %d B, before %d/%d",
						i, kind, got.GraphEdges, got.GraphBytes, want.GraphEdges, want.GraphBytes)
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
