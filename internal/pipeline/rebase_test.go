package pipeline

import (
	"testing"

	"repro/internal/kb"
)

// TestRebaseRunsOnePass: a state re-pointed at a compacted source keeps
// its old Front until the next Ingest or Evict, which makes exactly one
// pass over the new source — even over an empty one, where the covered
// count alone would read "nothing pending".
func TestRebaseRunsOnePass(t *testing.T) {
	p, src, st, opt := probeFixture(t)
	src.evict(30)
	compact, _ := src.col.Compact()
	for _, tc := range []struct {
		name string
		col  *kb.Collection
	}{
		{"compacted", compact},
		{"empty", kb.NewCollection()},
	} {
		old := st.Front
		st.Rebase(tc.col)
		if st.Front != old || st.InSync() {
			t.Fatalf("%s: Rebase swapped the front-end or left the state in sync", tc.name)
		}
		p.calls = map[string]int{}
		if err := p.Evict(st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p.checkOnePass(t, tc.name+": rebased pass", 1)
		checkAgainstCompacted(t, tc.name, p, true, st, tc.col, opt)
	}
	if len(st.Front.Edges) != 0 {
		t.Fatalf("a pass over an empty source retained %d comparisons", len(st.Front.Edges))
	}
}
