package main

import (
	"testing"

	minoaner "repro"
)

func TestSameSeedSameInputs(t *testing.T) {
	const entities, seedShare, waves, batch = 120, 0.5, 6, 8
	build := func(seed int64) (corpusDigest, opsDigest string) {
		c, err := newCorpus(seed, entities)
		if err != nil {
			t.Fatal(err)
		}
		seedN := int(float64(len(c.descs)) * seedShare)
		return digest(c.descs), digest(makeWaves(c.descs, seedN, waves, batch))
	}
	c1, o1 := build(5)
	c2, o2 := build(5)
	if c1 != c2 || o1 != o2 {
		t.Error("the same seed produced different inputs")
	}
	c3, o3 := build(6)
	if c1 == c3 || o1 == o3 {
		t.Error("different seeds produced the same inputs")
	}
}

func TestMakeWavesAndSurvivors(t *testing.T) {
	var descs []minoaner.Description
	for i := 0; i < 40; i++ {
		kb := "a"
		if i%2 == 1 {
			kb = "b"
		}
		descs = append(descs, minoaner.Description{KB: kb, URI: string(rune('A' + i))})
	}
	waves := makeWaves(descs, 10, 5, 4)
	// ingest, ingest, evict, ingest, ingest, evict, ingest
	shape := ""
	for _, w := range waves {
		switch {
		case len(w.Ingest) == 4 && w.Evict == nil:
			shape += "i"
		case len(w.Evict) == 4 && w.Ingest == nil:
			shape += "e"
		default:
			shape += "?"
		}
	}
	if shape != "iieiiei" {
		t.Fatalf("wave shape %q, want iieiiei", shape)
	}
	if waves[2].Evict[0].URI != descs[0].URI || waves[5].Evict[0].URI != descs[4].URI {
		t.Error("evict waves must take the oldest descriptions in arrival order")
	}
	if waves[6].Ingest[3].URI != descs[29].URI {
		t.Error("ingest waves must continue in arrival order after the seed corpus")
	}
	live := survivors(descs, 10, waves)
	if len(live) != 10+20-8 {
		t.Fatalf("%d survivors, want 22", len(live))
	}
	// Session order: the seed corpus KB by KB (first appearance first),
	// then the ingested descriptions as they arrived.
	if live[0].URI != descs[8].URI || live[1].URI != descs[9].URI || live[2].URI != descs[10].URI {
		t.Errorf("survivors start %s %s %s, want the seed corpus's survivors grouped by KB, then wave order",
			live[0].URI, live[1].URI, live[2].URI)
	}
	if got := makeWaves(descs, 38, 5, 4); len(got) != 0 {
		t.Errorf("%d waves from a corpus with nothing held back, want none", len(got))
	}
}

func TestCanonicalIgnoresOrder(t *testing.T) {
	a, b, c := minoaner.Ref{KB: "x", URI: "1"}, minoaner.Ref{KB: "y", URI: "2"}, minoaner.Ref{KB: "z", URI: "3"}
	r1 := &minoaner.Result{
		Matches:  []minoaner.Match{{A: a, B: b, Score: 0.9}, {A: b, B: c, Score: 0.8}},
		Clusters: []minoaner.Cluster{{a, b, c}},
	}
	r2 := &minoaner.Result{
		Matches:  []minoaner.Match{{A: c, B: b, Score: 0.7}, {A: b, B: a}},
		Clusters: []minoaner.Cluster{{c, a, b}},
	}
	if canonical(r1) != canonical(r2) {
		t.Error("canonical must ignore order, orientation and scores")
	}
	if digest(r1) == digest(r2) {
		t.Error("digest must not")
	}
	r2.Clusters = []minoaner.Cluster{{a, b}}
	if canonical(r1) == canonical(r2) {
		t.Error("canonical must tell different clusters apart")
	}
}
