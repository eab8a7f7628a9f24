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
	goldenTraceDigest   = "aff4fcab029fa2f5f0aded81047ed431bfe0a81a719018e9e855e4702298f113"
	goldenClusterDigest = "1d7d5b0fe805767776c401d0dc43b5e77a748b79a3d86e4fe8704725c40e4646"
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
	res := core.NewResolver(m, fe.Edges, core.DefaultConfig()).Run()
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

	if traceDigest != goldenTraceDigest || clusterDigest != goldenClusterDigest {
		t.Errorf("golden digests changed:\n  trace   %s\n  want    %s\n  cluster %s\n  want    %s\n"+
			"resolution semantics moved — if intended, update the constants",
			traceDigest, goldenTraceDigest, clusterDigest, goldenClusterDigest)
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
	fmt.Fprintf(&cb, "S %+v\n", out.Stats)
	return sha256digest(cb.String())
}
