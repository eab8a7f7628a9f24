package minoaner_test

import (
	"testing"

	minoaner "repro"
)

// TestGraphReleasedAfterPass checks that the blocking graph does not
// outlive its front-end pass, in RAM and in disk-store mode: a
// streaming wave builds a resident graph, Resume drops its arrays while
// the graph gauges keep reading what they read before, and a
// disk-store session never writes a graph key ('g') into its store.
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
			if g := s.FrontGraph(); g.Edges != nil || g.NumEdges() == 0 {
				t.Fatalf("after Start: %d resident of %d edges, want the arrays released", len(g.Edges), g.NumEdges())
			}
			for i, op := range ops[2:] {
				applyOp(t, p, op)
				g := s.FrontGraph()
				if g.Edges == nil {
					t.Fatalf("wave %d: no resident graph after the pass", i)
				}
				want := s.Gauges()
				if want.GraphEdges != len(g.Edges) || want.GraphBytes != g.Footprint() {
					t.Fatalf("wave %d: gauges %d edges %d B, graph holds %d/%d",
						i, want.GraphEdges, want.GraphBytes, len(g.Edges), g.Footprint())
				}
				if _, err := s.Resume(0); err != nil {
					t.Fatal(err)
				}
				if g.Edges != nil {
					t.Fatalf("wave %d: Resume kept the graph's arrays", i)
				}
				if got := s.Gauges(); got.GraphEdges != want.GraphEdges || got.GraphBytes != want.GraphBytes {
					t.Fatalf("wave %d: gauges after Resume %d edges %d B, before %d/%d",
						i, got.GraphEdges, got.GraphBytes, want.GraphEdges, want.GraphBytes)
				}
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
