// Crash-recovery differential suite for the write-ahead log: a
// recorded mutation run is cut at every byte and corrupted at every
// byte, and the recovered pipeline must resolve to exactly what a
// from-scratch, never-crashed pipeline over the surviving mutation
// prefix resolves to — the repo's golden-digest notion of "recovered
// correctly", swept across fsync policies, engines, TTL windows, and
// checkpoint rotations.
package minoaner_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	minoaner "repro"
	"repro/internal/frame"
	"repro/internal/wal"
)

// walOp is one recorded mutation — exactly one WAL record.
type walOp struct {
	ingest  []minoaner.Description
	evict   []minoaner.Ref
	evictKB string
	start   bool
}

func applyOp(t *testing.T, p *minoaner.Pipeline, op walOp) {
	t.Helper()
	var err error
	switch {
	case op.start:
		_, err = p.Start()
	case op.evictKB != "":
		err = p.Current().EvictKB(op.evictKB)
	case op.evict != nil:
		err = p.Current().Evict(op.evict)
	default:
		err = p.Add(op.ingest)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// recoveryOps records the standard workload over a small two-KB world:
// a pre-Start load, Start, interleaved ingest batches and evictions.
// Evictions always target descriptions from the batch just ingested,
// so the same op list stays valid under a sliding TTL window.
func recoveryOps(t *testing.T, n int) []walOp {
	t.Helper()
	w := hardSessionWorld(t, 97, n)
	var alpha, beta []minoaner.Description
	for id := 0; id < w.Collection.Len(); id++ {
		d := w.Collection.Desc(id)
		wd := minoaner.Description{KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links}
		if d.KB == "alpha" {
			alpha = append(alpha, wd)
		} else {
			beta = append(beta, wd)
		}
	}
	ah, bh := len(alpha)/2, len(beta)/2
	extra := []minoaner.Description{
		{KB: "extra", URI: "http://extra/1", Attrs: []minoaner.Attribute{{Predicate: "name", Value: "ephemeral one"}}},
		{KB: "extra", URI: "http://extra/2", Attrs: []minoaner.Attribute{{Predicate: "name", Value: "ephemeral two"}}},
	}
	return []walOp{
		{ingest: alpha[:ah]}, // pre-Start corpus
		{start: true},
		{ingest: alpha[ah:]},
		{ingest: beta[:bh]},
		{evict: []minoaner.Ref{{KB: beta[0].KB, URI: beta[0].URI}}},
		{ingest: extra},
		{evictKB: "extra"},
		{ingest: beta[bh:]},
		{evict: []minoaner.Ref{
			{KB: beta[bh].KB, URI: beta[bh].URI},
			{KB: beta[bh+1].KB, URI: beta[bh+1].URI},
		}},
	}
}

// finishDigest resolves whatever state the pipeline holds to completion
// and canonicalizes it — the recovery-equivalence oracle. A pipeline
// with no session yet is Started first; an empty one digests "empty".
func finishDigest(t *testing.T, p *minoaner.Pipeline) string {
	t.Helper()
	s := p.Current()
	if s == nil {
		if p.NumDescriptions() == 0 {
			return "empty"
		}
		var err error
		if s, err = p.Start(); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	return resultDigest(out)
}

// recordWorkload runs the ops through a write-ahead-logged pipeline and
// returns the raw log bytes. Unless rotate is set the log never rotates
// to a checkpoint, so it holds one frame per op.
func recordWorkload(t *testing.T, cfg minoaner.Config, ops []walOp, rotate bool) []byte {
	t.Helper()
	dir := t.TempDir()
	p, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rotate {
		p.SuppressRotation()
	}
	for _, op := range ops {
		applyOp(t, p, op)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// surviveAndRecover writes a damaged log image into a fresh dir, reads
// the records that survive framing, and recovers a pipeline from it.
// The read uses wal.Open directly — the reader recovery uses — so the
// test can look up the matching mutation prefix.
func surviveAndRecover(t *testing.T, cfg minoaner.Config, image []byte) ([]wal.Record, *minoaner.Pipeline) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(dir, cfg.WALFsync)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	p, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatalf("recover with %d surviving records: %v", len(recs), err)
	}
	return recs, p
}

// expectedDigests resolves, for every mutation-prefix length, what a
// from-scratch pipeline over that prefix produces — computed lazily,
// once per length.
func expectedDigests(t *testing.T, cfg minoaner.Config, ops []walOp) func(k int) string {
	cache := make(map[int]string)
	return func(k int) string {
		if d, ok := cache[k]; ok {
			return d
		}
		p := minoaner.New(cfg)
		for _, op := range ops[:k] {
			applyOp(t, p, op)
		}
		d := finishDigest(t, p)
		cache[k] = d
		return d
	}
}

// readRecords decodes image the way wal.Open reads its log file:
// frames from the start, under the log's payload cap, until the first
// torn, truncated or corrupt one.
func readRecords(t *testing.T, image []byte) []wal.Record {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(image))
	var recs []wal.Record
	for {
		typ, payload, err := frame.Read(br, wal.MaxPayload())
		if err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, frame.ErrCorrupt) {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, wal.Record{Type: typ, Payload: payload})
	}
}

// sameRecord compares two records by type and payload bytes.
func sameRecord(a, b wal.Record) bool { return a.Type == b.Type && bytes.Equal(a.Payload, b.Payload) }

// sweepLog damages the recorded log of ops (one frame per op) at every
// byte: it cuts the log there, and, separately, flips that byte. At
// every offset the log's reader must return exactly the first k
// recorded records, by type and payload bytes: the frames that end at
// or before the offset. Recovery is a function of those records, so
// wal.Open and then Open plus finishDigest run once per distinct
// (damage, k, where the offset falls: on a frame boundary, inside a
// header, inside a payload), at its first offset, and must equal the
// from-scratch pipeline over ops[:k]. Every byte is checked, under
// -race too. The per-byte check decodes in memory, as wal.Open decodes
// its file: each wal.Open ends with an fsync, a device flush per byte.
func sweepLog(t *testing.T, cfg minoaner.Config, ops []walOp, raw []byte) {
	t.Helper()
	want := readRecords(t, raw)
	var ends []int // ends[j] is where frame j ends
	end := 0
	for _, r := range want {
		end += frame.HeaderSize + len(r.Payload)
		ends = append(ends, end)
	}
	if len(want) != len(ops) || end != len(raw) {
		t.Fatalf("the log holds %d records over %d of its %d bytes, want %d", len(want), end, len(raw), len(ops))
	}
	expect := expectedDigests(t, cfg, ops)
	if expect(len(ops)) == "empty" {
		t.Fatal("workload resolves to nothing — the sweep would prove nothing")
	}
	recovered := make(map[string]bool)
	for _, flip := range []bool{false, true} {
		for off := 0; off < len(raw) || off == len(raw) && !flip; off++ {
			img := raw[:off]
			if flip {
				img = slices.Clone(raw)
				img[off] ^= 0x5a
			}
			k, _ := slices.BinarySearch(ends, off+1) // the frames that end at or before off
			what := fmt.Sprintf("flip=%v at byte %d", flip, off)
			if got := readRecords(t, img); len(got) != k || !slices.EqualFunc(got, want[:k], sameRecord) {
				t.Fatalf("%s: read %d records, want the first %d recorded", what, len(got), k)
			}
			start := 0
			if k > 0 {
				start = ends[k-1]
			}
			class := fmt.Sprint(flip, k, off == start, off-start < frame.HeaderSize)
			if recovered[class] {
				continue
			}
			recovered[class] = true
			recs, p := surviveAndRecover(t, cfg, img)
			got := finishDigest(t, p)
			p.Close()
			if len(recs) != k || !slices.EqualFunc(recs, want[:k], sameRecord) {
				t.Fatalf("%s: wal.Open read %d records, want the first %d recorded", what, len(recs), k)
			}
			if want := expect(k); got != want {
				t.Fatalf("%s (%d records survive): digest %s, want %s", what, k, got, want)
			}
		}
	}
}

// TestWALRecoveryTruncationSweep is the kill-point sweep over the
// standard workload: every cut — mid-header, mid-payload, and on each
// frame boundary — is the state a SIGKILL (or a power cut under
// fsync=always) at that write offset leaves behind, and every flipped
// byte is a checksum failure that must be a clean cut, never an error
// or a garbled state.
func TestWALRecoveryTruncationSweep(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	ops := recoveryOps(t, 8)
	// Too few departures to rotate: one frame per op — the log is the
	// mutation sequence.
	sweepLog(t, cfg, ops, recordWorkload(t, cfg, ops, true))
}

// TestWALRecoveryGrid crosses fsync policy × engine × TTL: whatever
// combination wrote the log, a full recovery equals the from-scratch
// pipeline under the same configuration.
func TestWALRecoveryGrid(t *testing.T) {
	engines := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"shared", 4},
	}
	policies := []struct {
		name string
		p    minoaner.FsyncPolicy
	}{
		{"always", minoaner.FsyncAlways},
		{"wave", minoaner.FsyncWave},
		{"off", minoaner.FsyncOff},
	}
	for _, eng := range engines {
		for _, pol := range policies {
			for _, ttl := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/fsync=%s/ttl=%d", eng.name, pol.name, ttl), func(t *testing.T) {
					cfg := minoaner.Defaults()
					cfg.Workers = eng.workers
					cfg.TTL = ttl
					cfg.WALFsync = pol.p
					ops := recoveryOps(t, 8)

					// Checkpoint rotation (the TTL window's expiries
					// would trigger it) has its own test; here the log
					// must stay one frame per op.
					raw := recordWorkload(t, cfg, ops, false)
					recs, p := surviveAndRecover(t, cfg, raw)
					if len(recs) != len(ops) {
						t.Fatalf("full log holds %d records, want %d", len(recs), len(ops))
					}
					got := finishDigest(t, p)
					p.Close()

					fresh := minoaner.New(cfg)
					for _, op := range ops {
						applyOp(t, fresh, op)
					}
					if want := finishDigest(t, fresh); got != want {
						t.Fatalf("recovered digest %s, want from-scratch %s", got, want)
					}
				})
			}
		}
	}
}

// TestWALRecoveryContinues proves the recovered pipeline is a live one:
// new mutations after recovery append to the same log, and a second
// recovery sees the concatenated history.
func TestWALRecoveryContinues(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	ops := recoveryOps(t, 8)

	dir := t.TempDir()
	p, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, p, op)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	more := walOp{ingest: []minoaner.Description{
		{KB: "alpha", URI: "http://late/1", Attrs: []minoaner.Attribute{{Predicate: "name", Value: "late arrival"}}},
	}}
	r1, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOp(t, r1, more)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := finishDigest(t, r2)
	r2.Close()

	fresh := minoaner.New(cfg)
	for _, op := range append(append([]walOp(nil), ops...), more) {
		applyOp(t, fresh, op)
	}
	if want := finishDigest(t, fresh); got != want {
		t.Fatalf("recover→mutate→recover digest %s, want %s", got, want)
	}
}

// rotatingOps is the standard workload plus an eviction of all of
// alpha, enough departures for the log to rotate with or without a TTL
// window (under one, alpha has expired by then and the eviction is a
// no-op).
func rotatingOps(t *testing.T) []walOp {
	return append(recoveryOps(t, 8), walOp{evictKB: "alpha"})
}

// TestWALCheckpointOnCompaction pins the rotation rule: a wave after
// which as many ids have departed since the last rotation as are live
// rotates the log down to a checkpoint (bounding its growth), and no
// other wave does — with or without a TTL window. Recovery through the
// checkpoint — corpus restore plus the records appended after it — must
// still equal the from-scratch session. The TTL variant also keeps
// ingesting after recovery, proving the checkpoint's age vector
// re-bases the sliding window correctly: expiry after the restart
// matches a pipeline that never restarted.
func TestWALCheckpointOnCompaction(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			ops := rotatingOps(t)

			dir := t.TempDir()
			p, err := minoaner.Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			departed, rotations := 0, int64(0)
			for i, op := range ops {
				live := p.NumDescriptions()
				applyOp(t, p, op)
				if p.Current() == nil || op.start {
					continue // no wave before the session exists
				}
				// Every batch of this workload brings descriptions the
				// pipeline never held, so what the live count fell short
				// of is what departed.
				n := live + len(op.ingest) - p.NumDescriptions()
				if len(op.ingest) == 0 && n == 0 {
					continue // an eviction of nothing live is no wave
				}
				if departed += n; departed >= p.NumDescriptions() {
					rotations, departed = rotations+1, 0
				}
				if got := p.Current().Gauges().WALCheckpoints; got != rotations {
					t.Fatalf("after op %d the log rotated %d times, want %d", i, got, rotations)
				}
			}
			if rotations == 0 {
				t.Fatal("workload never reached the rotation rule — raise the eviction traffic")
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery reads the checkpoint plus whatever followed it.
			rp, err := minoaner.Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			late := []walOp{
				{ingest: []minoaner.Description{{KB: "alpha", URI: "http://late/1",
					Attrs: []minoaner.Attribute{{Predicate: "name", Value: "late one"}}}}},
				{ingest: []minoaner.Description{{KB: "betaKB", URI: "http://late/2",
					Attrs: []minoaner.Attribute{{Predicate: "name", Value: "late two"}}}}},
			}
			for _, op := range late {
				applyOp(t, rp, op) // advances the TTL clock past the checkpointed ages
			}
			got := finishDigest(t, rp)
			rp.Close()

			fresh := minoaner.New(cfg)
			for _, op := range append(append([]walOp(nil), ops...), late...) {
				applyOp(t, fresh, op)
			}
			if want := finishDigest(t, fresh); got != want {
				t.Fatalf("post-checkpoint recovery digest %s, want %s", got, want)
			}
		})
	}
}

// recoverVariant records a variant of the standard workload with one
// frame per op and sweeps it (sweepLog).
func recoverVariant(t *testing.T, cfg minoaner.Config, ops []walOp) {
	t.Helper()
	sweepLog(t, cfg, ops, recordWorkload(t, cfg, ops, false))
}

// TestWALRecoveryCompactionRefired recovers one workload from two
// logs: one that rotated to a checkpoint whenever the rule fired, and
// one recorded with rotation suppressed — the longer log a crash
// between a rotating wave's append and its rotation leaves behind. The
// records are configuration-independent wire batches, so folding the
// long log re-fires, in the one compaction recovery makes, every
// departure the checkpoint had baked in. Both must recover to the
// never-crashed pipeline's digest, with no tombstone left.
func TestWALRecoveryCompactionRefired(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			ops := rotatingOps(t)
			fresh := minoaner.New(cfg)
			for _, op := range ops {
				applyOp(t, fresh, op)
			}
			want := finishDigest(t, fresh)

			var records []int
			for _, rotate := range []bool{true, false} {
				recs, p := surviveAndRecover(t, cfg, recordWorkload(t, cfg, ops, rotate))
				records = append(records, len(recs))
				if n := p.Current().Tombstones(); n != 0 {
					t.Fatalf("rotate=%v: the recovered collection holds %d tombstones", rotate, n)
				}
				got := finishDigest(t, p)
				p.Close()
				if got != want {
					t.Fatalf("rotate=%v: recovered digest %s, want %s", rotate, got, want)
				}
			}
			if records[0] >= records[1] {
				t.Fatalf("the rotated log holds %d records, the unrotated %d — the workload never rotated", records[0], records[1])
			}
		})
	}
}

// TestWALRecoveryTwoStarts: a second Start record opens a fresh session
// over the collection as it stands — every description batch 0 again,
// nothing departed yet — and the records after it stream into that
// session, not the first.
func TestWALRecoveryTwoStarts(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			std := recoveryOps(t, 8)
			ops := append(append(append([]walOp(nil), std[:5]...), walOp{start: true}), std[5:]...)
			recoverVariant(t, cfg, ops)
		})
	}
}

// evictToEmptyOps is the standard pre-Start load, Start, the rest of
// alpha and all of betaKB, then both KBs evicted wholesale.
func evictToEmptyOps(t *testing.T) []walOp {
	std := recoveryOps(t, 8)
	return append(append([]walOp(nil), std[:4]...), std[7],
		walOp{evictKB: std[0].ingest[0].KB}, walOp{evictKB: std[3].ingest[0].KB})
}

// TestWALRecoveryEvictToEmpty: a log whose live set ends empty recovers
// to an empty session.
func TestWALRecoveryEvictToEmpty(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	recoverVariant(t, cfg, evictToEmptyOps(t))
}

// TestWALRecoveryEmptyCheckpoint: a wave that leaves nothing live
// rotates the log to an empty checkpoint, and that log recovers — to an
// empty session that keeps streaming.
func TestWALRecoveryEmptyCheckpoint(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	ops := evictToEmptyOps(t)
	raw := recordWorkload(t, cfg, ops, true)
	recs, p := surviveAndRecover(t, cfg, raw)
	defer p.Close()
	if len(recs) != 1 {
		t.Fatalf("the log holds %d records, want the lone checkpoint", len(recs))
	}
	if n := p.NumDescriptions(); n != 0 {
		t.Fatalf("recovered %d live descriptions, want none", n)
	}
	if got, want := finishDigest(t, p), expectedDigests(t, cfg, ops)(len(ops)); got != want {
		t.Fatalf("recovered digest %s, want %s", got, want)
	}
	late := ops[2] // the rest of alpha, back again
	applyOp(t, p, late)
	if n := p.NumDescriptions(); n != len(late.ingest) {
		t.Fatalf("ingest after an empty recovery holds %d descriptions, want %d", n, len(late.ingest))
	}
}

// TestWALRecoveryMerges re-ingests URIs the session already holds under
// a two-batch TTL window: a merge-only batch still counts as a batch
// (the clock advances and older batches expire), merging again counts
// again, an eviction that follows merges is not a batch, and a URI
// that expired comes back under a fresh id. The fold sees all of it
// without a pass in between, so the merges it has not drained yet must
// not make later records count as batches.
func TestWALRecoveryMerges(t *testing.T) {
	std := recoveryOps(t, 8)
	alphaHead, betaHead, betaTail := std[0].ingest, std[3].ingest, std[7].ingest
	ops := append(append([]walOp(nil), std[:4]...),
		walOp{ingest: betaHead[:2]}, // merges only
		walOp{evict: []minoaner.Ref{{KB: betaHead[3].KB, URI: betaHead[3].URI}}},
		walOp{ingest: betaHead[:2]}, // the same merges again
		walOp{ingest: append(append([]minoaner.Description(nil), betaTail...), betaHead[0], betaHead[0])},
		walOp{ingest: alphaHead[:2]}, // expired long ago: fresh ids
	)
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	cfg.TTL = 2
	recoverVariant(t, cfg, ops)
}
