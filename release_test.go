package minoaner_test

import (
	"testing"

	minoaner "repro"
)

// TestGraphReleasedAfterPass checks that the blocking graph does not
// outlive its front-end pass, in RAM and in disk-store mode: after
// Start and after every streaming wave — ingest and evict alike, with
// no Resume in between as well as after one — the pass's graph has
// already dropped its arrays, so matching never allocates beside it;
// the graph gauges read the pass's edge count and footprint and stay
// put through Resume; and a disk-store session never writes a graph key
// ('g') into its store.
func TestGraphReleasedAfterPass(t *testing.T) {
	base := minoaner.Defaults()
	ops := recoveryOps(t, 12)
	if !ops[1].start {
		t.Fatal("workload's second op is not Start")
	}
	for _, mode := range []string{"", "disk"} {
		t.Run("store="+mode, func(t *testing.T) {
			p := minoaner.New(withStore(t, base, mode))
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
			n, err := p.StoreKeys("g")
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("store holds %d graph keys", n)
			}
			if mode == "disk" {
				if k := s.Gauges().StoreKeys; k == 0 {
					t.Fatal("disk store holds no keys at all: the check above proves nothing")
				}
			}
		})
	}
}
