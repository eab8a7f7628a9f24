// In-package regression tests for WAL frame-cap handling: an ingest
// batch whose JSON outgrows the frame budget must split into separately
// logged chunks (each replayable on its own), and a single description
// no frame can carry must be refused with the typed
// wal.ErrFrameTooLarge before anything is appended or applied — the
// old path cast the length to uint32 unchecked, which would have
// written a wrapped length and corrupted the log. The cap is injected
// through testPayloadCap so the boundary is exercised without
// gigabyte allocations.
package minoaner

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/wal"
)

// splitWorld builds a batch whose JSON encoding comfortably exceeds cap.
func splitWorld(n int) []Description {
	batch := make([]Description, n)
	for i := range batch {
		kbn := "a"
		if i%2 == 1 {
			kbn = "b"
		}
		batch[i] = dsc(kbn, fmt.Sprintf("http://x/%d", i), fmt.Sprintf("common token plus entity %d", i/2))
	}
	return batch
}

func TestSplitBatchShape(t *testing.T) {
	batch := splitWorld(16)
	full, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	cap := len(full) / 5
	chunks, err := splitBatch(batch, cap)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("batch of %d bytes under cap %d split into %d chunks", len(full), cap, len(chunks))
	}
	var flat []Description
	for i, c := range chunks {
		if len(c.descs) == 0 {
			t.Fatalf("chunk %d is empty", i)
		}
		data, _ := json.Marshal(c.descs)
		if len(data) > cap {
			t.Fatalf("chunk %d (%d descriptions) marshals to %d bytes over cap %d", i, len(c.descs), len(data), cap)
		}
		if string(c.data) != string(data) {
			t.Fatalf("chunk %d carries %d bytes, not its descriptions' encoding", i, len(c.data))
		}
		flat = append(flat, c.descs...)
	}
	if len(flat) != len(batch) {
		t.Fatalf("chunks carry %d descriptions, want %d", len(flat), len(batch))
	}
	for i := range flat {
		if flat[i].URI != batch[i].URI {
			t.Fatalf("description %d reordered: %s, want %s", i, flat[i].URI, batch[i].URI)
		}
	}
	// A batch under the cap stays whole, and a single description over
	// the cap is refused with the typed sentinel.
	if got, err := splitBatch(batch, len(full)); err != nil || len(got) != 1 {
		t.Fatalf("under-cap batch: %d chunks, err %v", len(got), err)
	}
	if _, err := splitBatch(batch[:1], 4); !errors.Is(err, wal.ErrFrameTooLarge) {
		t.Fatalf("oversized single description = %v, want wal.ErrFrameTooLarge", err)
	}
}

// TestIngestChunkingReplays drives an over-cap batch through both
// dispatch paths — pre-Start load and live-session ingest — with a
// lowered frame budget, and proves the log recovers to exactly the
// state of an uncapped pipeline fed the same batches. The TTL variant
// pins the documented semantics: each chunk is its own logged batch
// and its own TTL tick, identical live and on replay.
func TestIngestChunkingReplays(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := Defaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			pre, live := splitWorld(12), splitWorld(24)[12:]

			dir := t.TempDir()
			p, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.testPayloadCap = 400
			p.testNoRotate = true // one record per chunk
			if err := p.Add(pre); err != nil {
				t.Fatal(err)
			}
			s, err := p.Start()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Ingest(live); err != nil {
				t.Fatal(err)
			}
			chunks, err := splitBatch(live, p.testPayloadCap)
			if err != nil {
				t.Fatal(err)
			}
			liveChunks := len(chunks)
			if liveChunks < 2 {
				t.Fatal("live batch fits one frame — the test exercises nothing")
			}
			if ttl > 0 && s.curGen != liveChunks {
				t.Fatalf("TTL clock at %d after %d chunks", s.curGen, liveChunks)
			}
			res, err := s.Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery replays one record per chunk through the same path.
			rp, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rp.Close()
			rres, err := rp.Current().Resume(0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%+v", rres.Stats), fmt.Sprintf("%+v", res.Stats); got != want {
				t.Fatalf("recovered stats %s, want %s", got, want)
			}
			if len(rres.Matches) != len(res.Matches) {
				t.Fatalf("recovered %d matches, want %d", len(rres.Matches), len(res.Matches))
			}
			for i := range res.Matches {
				if rres.Matches[i] != res.Matches[i] {
					t.Fatalf("recovered match %d = %+v, want %+v", i, rres.Matches[i], res.Matches[i])
				}
			}
		})
	}
}

// TestFrameTooLargeTyped pins the bugfix proper: a description whose
// own encoding exceeds the cap reaches Append as a one-element chunk,
// Append refuses it with the typed sentinel, and nothing was logged or
// applied — the session stays healthy, not poisoned.
func TestFrameTooLargeTyped(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	p, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.testPayloadCap = 200

	huge := []Description{dsc("a", "http://x/huge", string(make([]byte, 4096)))}
	if err := p.Add(huge); !errors.Is(err, wal.ErrFrameTooLarge) {
		t.Fatalf("pre-Start Add of oversized description = %v, want wal.ErrFrameTooLarge", err)
	}
	if p.NumDescriptions() != 0 {
		t.Fatalf("%d descriptions applied after refused append", p.NumDescriptions())
	}

	if err := p.Add(splitWorld(4)); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumDescriptions()
	if err := s.Ingest(huge); !errors.Is(err, wal.ErrFrameTooLarge) {
		t.Fatalf("session Ingest of oversized description = %v, want wal.ErrFrameTooLarge", err)
	}
	if p.NumDescriptions() != before {
		t.Fatal("oversized ingest mutated the collection")
	}
	// Refused before anything moved: no poison, the session keeps working.
	if err := s.Ingest([]Description{dsc("a", "http://x/ok", "small late arrival")}); err != nil {
		t.Fatalf("ingest after refused oversized batch: %v", err)
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestNoLogAcceptsOverCapDescription: the frame cap bounds a log
// record, so a pipeline without a log takes a description no frame
// could carry — before Start and into a live session — and applies an
// over-cap batch whole, as one TTL batch.
func TestNoLogAcceptsOverCapDescription(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	cfg.TTL = 2
	p := New(cfg)
	p.testPayloadCap = 200

	huge := []Description{dsc("a", "http://x/huge", string(make([]byte, 4096)))}
	if err := p.Add(huge); err != nil {
		t.Fatalf("pre-Start Add of an over-cap description without a log: %v", err)
	}
	if err := p.Add(splitWorld(4)); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumDescriptions()
	late := []Description{
		dsc("b", "http://x/huge", string(make([]byte, 4096))),
		dsc("a", "http://x/late", "small late arrival"),
	}
	if err := s.Ingest(late); err != nil {
		t.Fatalf("session Ingest of an over-cap batch without a log: %v", err)
	}
	if got := p.NumDescriptions(); got != before+len(late) {
		t.Fatalf("over-cap ingest applied %d of %d descriptions", got-before, len(late))
	}
	if s.curGen != 1 {
		t.Fatalf("TTL clock at %d after one over-cap batch, want 1", s.curGen)
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointOverCapTyped shrinks the frame cap so that every
// description and batch still fits but a checkpoint of the live corpus
// does not: the mutation that reaches the rotation rule must fail with
// ErrCheckpoint and not with wal.ErrFrameTooLarge (the client sent
// nothing too large), and the session must stay live — the mutation
// was folded, only the log rotation was refused. A refused rotation
// restarts the departure count, so the next mutations do not marshal
// the corpus again: the rotation is retried only once another live
// count of ids has departed, and once the cap allows it, the log
// rotates.
func TestCheckpointOverCapTyped(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	p, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.testPayloadCap = 400
	all := splitWorld(24)
	if err := p.Add(all); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	evictFirst := func() error {
		s.Pending() // a read: the collection is compacted, id 0 is live
		d := s.col.Desc(0)
		return s.Evict([]Ref{{KB: d.KB, URI: d.URI}})
	}
	// evictUntilRetry evicts one description at a time; every eviction
	// before the one where the departures since the last attempt reach
	// the live count must not try the rotation, and that one must be
	// refused again.
	evictUntilRetry := func(what string) {
		t.Helper()
		for departed := 1; ; departed++ {
			err := evictFirst()
			if departed < p.NumDescriptions() {
				if err != nil {
					t.Fatalf("%s: eviction %d of a live count returned %v, want no rotation attempt", what, departed, err)
				}
				continue
			}
			if !errors.Is(err, ErrCheckpoint) || errors.Is(err, wal.ErrFrameTooLarge) {
				t.Fatalf("%s: rotating mutation returned %v, want ErrCheckpoint without wal.ErrFrameTooLarge", what, err)
			}
			if errors.Is(err, ErrDesynced) {
				t.Fatalf("%s: a refused checkpoint poisoned the session: %v", what, err)
			}
			return
		}
	}
	evictUntilRetry("first rotation")
	if g := s.Gauges(); g.WALCheckpoints != 0 {
		t.Fatalf("%d checkpoints written past the cap", g.WALCheckpoints)
	}
	if _, err := s.Resume(0); err != nil {
		t.Fatalf("session unusable after a refused checkpoint: %v", err)
	}
	evictUntilRetry("the retry")

	// A batch over the frame cap folds as one ingest per chunk; the
	// first chunk's rotation is refused, and the rest of the batch must
	// still be folded. Departures are run up without rotation, then the
	// cap is cut so that each late description is a chunk of its own.
	p.testNoRotate = true
	for p.NumDescriptions() > 2 {
		if err := evictFirst(); err != nil {
			t.Fatal(err)
		}
	}
	p.testNoRotate = false
	p.testPayloadCap = 300
	var late []Description
	for i := range 4 {
		late = append(late, dsc("a", fmt.Sprintf("http://x/late%d", i), strings.Repeat("late arrival ", 12)))
	}
	if chunks, err := splitBatch(late, p.testPayloadCap); err != nil || len(chunks) != len(late) {
		t.Fatalf("late batch splits into %d chunks (%v), want one per description", len(chunks), err)
	}
	before := p.NumDescriptions()
	if err := s.Ingest(late); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("chunked ingest under a refused rotation returned %v, want ErrCheckpoint", err)
	}
	if got := p.NumDescriptions(); got != before+len(late) {
		t.Fatalf("chunked ingest folded %d of %d descriptions", got-before, len(late))
	}
	p.testPayloadCap = 0
	for g := s.Gauges(); g.WALCheckpoints == 0; g = s.Gauges() {
		if p.NumDescriptions() == 0 {
			t.Fatal("evicted everything without a rotation under the real cap")
		}
		if err := evictFirst(); err != nil {
			t.Fatalf("an eviction under the real cap: %v", err)
		}
	}
	if g := s.Gauges(); g.WALCheckpoints != 1 || g.WALRecords != 1 {
		t.Fatalf("after the rotation the log holds %d records over %d checkpoints, want one checkpoint", g.WALRecords, g.WALCheckpoints)
	}
}
