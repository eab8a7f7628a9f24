package minoaner_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/pipeline"
	"repro/internal/tokenize"
)

// The golden digests pin the full resolution semantics — every
// executed comparison with its exact score bits, and the final
// clustering — for a fixed generated corpus under the default
// configuration. A pipeline refactor that changes any observable of
// the resolution (schedule order, scores, decisions, clusters) breaks
// them; bit-identical refactors (parallel engines, incremental
// ingestion) keep them.
//
// If a change is *supposed* to alter resolution semantics, run the
// test and paste the printed digests here.
const (
	goldenTraceDigest   = "58d0db37176543ba75bb735285742c787ea0c0a30dc033792815654ff5224054"
	goldenClusterDigest = "3047ea23cdcc82f0d40307b310ebe0b77f319022a91d51a2f29664d842531393"
	// goldenResolvedDigest is resolvedDigest of the same Result: its
	// matches and clusters without the Stats line. A change that moves
	// only what the resolver counts keeps it.
	goldenResolvedDigest = "84bc0c2ba8b2ebab0a0a4e1c4095d7096090d54aa6ba0310fad45073d4b68d0a"
)

// goldenWorld is the pinned corpus: the cmd/datagen-style two-KB world
// with links, seed 2016.
func goldenWorld(t *testing.T) *datagen.World {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{
		Seed:        2016,
		NumEntities: 120,
		KBs: []datagen.KBConfig{
			{Name: "alpha", Coverage: 1, Profile: datagen.Center()},
			{Name: "betaKB", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGoldenResolution(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The digests pin exact float bits. Score accumulation uses
		// fusable multiply-adds, which the Go spec lets other
		// architectures (arm64) contract into FMA — same semantics,
		// different last-ulp bits. CI pins amd64.
		t.Skipf("golden digests are amd64 float bits; GOARCH=%s fuses differently", runtime.GOARCH)
	}
	w := goldenWorld(t)

	// Full trace at the core level: every executed comparison, not just
	// the confirmed matches.
	fe, err := pipeline.Run(pipeline.Sequential{}, w.Collection, pipeline.Options{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(w.Collection, match.DefaultOptions())
	res := core.NewResolver(m, fe.Edges, core.Config{}).RunBudget(0)
	var tb strings.Builder
	for _, s := range res.Trace {
		fmt.Fprintf(&tb, "%d %d %016x %v %v %v %v\n",
			s.A, s.B, math.Float64bits(s.Score), s.Matched, s.Merged, s.Discovered, s.Recheck)
	}
	traceDigest := sha256digest(tb.String())

	// Final clusters at the public level, scores included.
	p := minoaner.New(minoaner.Defaults())
	for _, name := range []string{"alpha", "betaKB"} {
		var docs []minoaner.Description
		for id := 0; id < w.Collection.Len(); id++ {
			d := w.Collection.Desc(id)
			if d.KB == name {
				docs = append(docs, minoaner.Description{
					KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
				})
			}
		}
		if err := p.Add(docs); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	clusterDigest := resultDigest(out)
	resolved := resolvedDigest(out)

	if traceDigest != goldenTraceDigest || clusterDigest != goldenClusterDigest || resolved != goldenResolvedDigest {
		t.Errorf("golden digests changed:\n  trace    %s\n  want     %s\n  cluster  %s\n  want     %s\n  resolved %s\n  want     %s\n"+
			"resolution semantics moved — if intended, update the constants",
			traceDigest, goldenTraceDigest, clusterDigest, goldenClusterDigest, resolved, goldenResolvedDigest)
	}
	// Keep the pinned workload meaningful: it must exercise discovery
	// and produce a real clustering.
	if res.Discovered == 0 || len(out.Clusters) == 0 {
		t.Error("golden corpus no longer exercises discovery — regenerate it")
	}
}

func sha256digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultDigest canonicalizes a public Result — matches with exact
// score bits, clusters, stats — into the SHA-256 the golden constants
// pin. It reads only KB/URI references, never internal ids, so any
// session whose resolution semantics equal the golden run reproduces
// it, however its ids came to be assigned.
func resultDigest(out *minoaner.Result) string {
	return sha256digest(resolutionText(out) + fmt.Sprintf("S %+v\n", out.Stats))
}

// resolvedDigest is resultDigest without the Stats line: the matches
// and the clusters alone. It pins what a resolution decided, apart from
// what it counted, so a change to the accounting (what a comparison or
// a budget unit is) can be shown to move no decision.
func resolvedDigest(out *minoaner.Result) string {
	return sha256digest(resolutionText(out))
}

// resolutionText renders a Result's matches, with exact score bits,
// and its clusters, one line each.
func resolutionText(out *minoaner.Result) string {
	var cb strings.Builder
	for _, mt := range out.Matches {
		fmt.Fprintf(&cb, "M %s/%s %s/%s %016x %v %v\n",
			mt.A.KB, mt.A.URI, mt.B.KB, mt.B.URI, math.Float64bits(mt.Score), mt.Discovered, mt.Rechecked)
	}
	for _, c := range out.Clusters {
		cb.WriteString("C")
		for _, r := range c {
			cb.WriteString(" " + r.KB + "/" + r.URI)
		}
		cb.WriteString("\n")
	}
	return cb.String()
}
