// Streaming: resolve a corpus that arrives in batches. The session
// starts on the first slice of the data and every later batch is
// folded in with Session.Ingest, with per-batch match counts printed as
// answers accumulate. A mutation only folds the batch into the
// collection; the next read (here each Resume) makes one from-scratch
// pass over the live corpus: compaction, the front end (blocking →
// pruning), a new matcher, and the resolver rebuilt by Retract, which
// replays the session's merges. At the end, the streamed session is
// compared against a from-scratch run over the whole corpus: when no
// budget is spent before the last batch the two are bit-identical, and
// in the pay-as-you-go mode used here they reach the same corpus
// quality.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	minoaner "repro"
	"repro/internal/datagen"
)

func main() {
	// A synthetic two-KB world with links stands in for a live feed.
	w, err := datagen.Generate(datagen.Config{
		Seed:        7,
		NumEntities: 300,
		KBs: []datagen.KBConfig{
			{Name: "central", Coverage: 1, Profile: datagen.Center()},
			{Name: "feed", Coverage: 1, Profile: datagen.Center()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The stream: descriptions interleaved across KBs, as a crawl
	// would deliver them.
	var stream []minoaner.Description
	perKB := make(map[string][]int)
	var kbs []string
	for id := 0; id < w.Collection.Len(); id++ {
		name := w.Collection.Desc(id).KB
		if len(perKB[name]) == 0 {
			kbs = append(kbs, name)
		}
		perKB[name] = append(perKB[name], id)
	}
	for i := 0; len(stream) < w.Collection.Len(); i++ {
		for _, name := range kbs {
			if ids := perKB[name]; i < len(ids) {
				d := w.Collection.Desc(ids[i])
				stream = append(stream, minoaner.Description{
					KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
				})
			}
		}
	}

	const batches = 5
	seed := len(stream) / batches

	p := minoaner.New(minoaner.Defaults())
	if err := p.Add(stream[:seed]); err != nil {
		log.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Resume(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch 1/%d: %4d descriptions in, %3d matches, %4d comparisons spent\n",
		batches, res.Stats.Descriptions, res.Stats.Matches, res.Stats.Comparisons)

	for b := 1; b < batches; b++ {
		lo, hi := b*len(stream)/batches, (b+1)*len(stream)/batches
		if err := s.Ingest(stream[lo:hi]); err != nil {
			log.Fatal(err)
		}
		if res, err = s.Resume(0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d/%d: %4d descriptions in, %3d matches, %4d comparisons spent\n",
			b+1, batches, res.Stats.Descriptions, res.Stats.Matches, res.Stats.Comparisons)
	}

	// The from-scratch reference over the complete corpus.
	p2 := minoaner.New(minoaner.Defaults())
	if err := p2.Add(stream); err != nil {
		log.Fatal(err)
	}
	whole, err := p2.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	// Gated reads the final schedule: the pairs that can never match,
	// kept out of its queue. The two schedules are built over the same
	// corpus, so only their merges tell them apart.
	fmt.Printf("\nstreamed session: %d matches in %d clusters (%d comparisons; %d pairs gated out of the final schedule)\n",
		res.Stats.Matches, len(res.Clusters), res.Stats.Comparisons, res.Stats.Gated)
	fmt.Printf("from scratch:     %d matches in %d clusters (%d comparisons; %d pairs gated out of the final schedule)\n",
		whole.Stats.Matches, len(whole.Clusters), whole.Stats.Comparisons, whole.Stats.Gated)

	// The evict leg: the first batch goes stale and leaves the live
	// session. The next read's pass rebuilds the graph over the
	// survivors alone; Retract drops the matches touching the departed
	// descriptions, and matches among the survivors stay resolved. A from-scratch run
	// over a corpus that never held the first batch lands on the same
	// resolution.
	var gone []minoaner.Ref
	for _, d := range stream[:seed] {
		gone = append(gone, minoaner.Ref{KB: d.KB, URI: d.URI})
	}
	if err := s.Evict(gone); err != nil {
		log.Fatal(err)
	}
	if res, err = s.Resume(0); err != nil {
		log.Fatal(err)
	}
	p3 := minoaner.New(minoaner.Defaults())
	if err := p3.Add(stream[seed:]); err != nil {
		log.Fatal(err)
	}
	surv, err := p3.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter evicting batch 1 (%d descriptions):\n", len(gone))
	fmt.Printf("evicted session:  %4d descriptions in, %3d matches in %d clusters\n",
		res.Stats.Descriptions, res.Stats.Matches, len(res.Clusters))
	fmt.Printf("never-held-them:  %4d descriptions in, %3d matches in %d clusters\n",
		surv.Stats.Descriptions, surv.Stats.Matches, len(surv.Clusters))
	fmt.Println("\n(ingest or evict everything before the first Resume and the runs" +
		"\n are bit-identical — traces included; see the differential suites.)")
}
