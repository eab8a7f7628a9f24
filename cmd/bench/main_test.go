package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"strings"
	"testing"
)

// benchOutputDigest pins the SHA-256 of bench's full default output:
// all nine tables at the default seed and scale. The tables hold
// counts and quality only, never wall time, so a change that keeps the
// pipeline's behaviour prints the same bytes; a change meant to move a
// table updates the digest and records the rows that moved.
const benchOutputDigest = "bac74bd7333f436cbf3cb353db11be29732681faf1aa2a01c067a7bd71044fed"

func TestDefaultOutputDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest pins amd64 float bits; GOARCH=%s fuses differently", runtime.GOARCH)
	}
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(out.String()))
	if got := hex.EncodeToString(sum[:]); got != benchOutputDigest {
		t.Errorf("bench output digest %s, want %s; the tables:\n%s", got, benchOutputDigest, out.String())
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// Smoke-test the cheapest experiments through the CLI path.
	for _, id := range []string{"T2", "t6", "F4"} {
		if err := run([]string{"-id", id, "-seed", "4"}, io.Discard); err != nil {
			t.Fatalf("-id %s: %v", id, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-id", "Z9"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Only the paper's tables have ids, and there is no -ablations.
	for _, id := range []string{"A1", "T5"} {
		if err := run([]string{"-id", id}, io.Discard); err == nil {
			t.Errorf("-id %s accepted", id)
		}
	}
	if err := run([]string{"-ablations"}, io.Discard); err == nil {
		t.Error("-ablations accepted")
	}
	if err := run([]string{"-scale", "0"}, io.Discard); err == nil {
		t.Error("zero scale accepted")
	}
}
