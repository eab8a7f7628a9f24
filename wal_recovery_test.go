// Crash-recovery differential suite for the write-ahead log: a
// recorded mutation run is truncated at every byte (and corrupted at
// sampled bytes), and the recovered pipeline must resolve to exactly
// what a from-scratch, never-crashed pipeline over the surviving
// mutation prefix resolves to — the repo's golden-digest notion of
// "recovered correctly", swept across fsync policies, engines, TTL
// windows, and compaction checkpoints.
package minoaner_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	minoaner "repro"
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
// returns the raw log bytes.
func recordWorkload(t *testing.T, cfg minoaner.Config, ops []walOp) []byte {
	t.Helper()
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
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// surviveAndRecover writes a damaged log image into a fresh dir,
// counts the records that survive framing, and recovers a pipeline
// from it. The count step uses the wal reader directly — the same
// reader recovery uses — so the test can look up the matching
// mutation prefix.
func surviveAndRecover(t *testing.T, cfg minoaner.Config, image []byte) (int, *minoaner.Pipeline) {
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
	return len(recs), p
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

// TestWALRecoveryTruncationSweep is the kill-point sweep of the issue:
// the recorded log is cut at EVERY byte offset — mid-header, mid-
// payload, and on each frame boundary — and each cut must recover to
// the golden digest of a from-scratch session over the mutations whose
// frames survive in full. This is exactly the state a SIGKILL (or a
// power cut under fsync=always) at that write offset leaves behind.
func TestWALRecoveryTruncationSweep(t *testing.T) {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = -1 // keep one frame per op: no checkpoint rotation
	ops := recoveryOps(t, 8)
	raw := recordWorkload(t, cfg, ops)

	// One frame per op — the log is the mutation sequence.
	k, full := surviveAndRecover(t, cfg, raw)
	if k != len(ops) {
		t.Fatalf("full log holds %d records, want %d", k, len(ops))
	}
	expect := expectedDigests(t, cfg, ops)
	if got := finishDigest(t, full); got != expect(len(ops)) {
		t.Fatalf("full-log recovery diverged from from-scratch")
	}
	full.Close()
	if expect(len(ops)) == "empty" {
		t.Fatal("workload resolves to nothing — the sweep would prove nothing")
	}

	stride := 1
	if testing.Short() || raceEnabled {
		stride = 17 // still hits every header/payload phase across frames
	}
	t.Logf("sweeping %d byte offsets (stride %d)", len(raw)+1, stride)
	for cut := 0; cut <= len(raw); cut += stride {
		k, p := surviveAndRecover(t, cfg, raw[:cut])
		got := finishDigest(t, p)
		p.Close()
		if want := expect(k); got != want {
			t.Fatalf("cut at byte %d (%d records survive): digest %s, want %s",
				cut, k, got, want)
		}
	}
}

// TestWALRecoveryCorruption flips bytes at sampled offsets (headers and
// payloads both land in the sample): recovery must stop at the last
// intact frame prefix and still equal the from-scratch session over
// those mutations — a checksum failure is a clean cut, never an error
// or a garbled state.
func TestWALRecoveryCorruption(t *testing.T) {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = -1 // keep one frame per op: no checkpoint rotation
	ops := recoveryOps(t, 8)
	raw := recordWorkload(t, cfg, ops)
	expect := expectedDigests(t, cfg, ops)

	stride := 31
	if testing.Short() || raceEnabled {
		stride = 211
	}
	for pos := 0; pos < len(raw); pos += stride {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x5a
		k, p := surviveAndRecover(t, cfg, mut)
		got := finishDigest(t, p)
		p.Close()
		if want := expect(k); got != want {
			t.Fatalf("flip at byte %d (%d records survive): digest %s, want %s",
				pos, k, got, want)
		}
	}
}

// TestWALRecoveryGrid crosses fsync policy × engine × TTL: whatever
// combination wrote the log, a full recovery equals the from-scratch
// pipeline under the same configuration. (Digest comparison stays
// within one engine — MapReduce's documented float round-off keeps
// cross-engine bits out of scope, as everywhere in this repo.)
func TestWALRecoveryGrid(t *testing.T) {
	engines := []struct {
		name    string
		workers int
		mr      bool
	}{
		{"sequential", 1, false},
		{"shared", 4, false},
		{"mapreduce", 4, true},
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
					cfg := minoaner.EnvDefaults()
					cfg.Workers = eng.workers
					cfg.MapReduce = eng.mr
					cfg.TTL = ttl
					cfg.WALFsync = pol.p
					// Checkpoint rotation (TTL's default compaction
					// threshold would trigger it) has its own test;
					// here the log must stay one frame per op.
					cfg.CompactionThreshold = -1
					ops := recoveryOps(t, 8)

					raw := recordWorkload(t, cfg, ops)
					k, p := surviveAndRecover(t, cfg, raw)
					if k != len(ops) {
						t.Fatalf("full log holds %d records, want %d", k, len(ops))
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
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = -1
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

// TestWALCheckpointOnCompaction drives eviction traffic over the
// compaction threshold: the epoch must rotate the log down to a
// checkpoint (bounding its growth), and recovery through the
// checkpoint — corpus restore plus the records appended after it —
// must still equal the from-scratch session. The TTL variant also
// keeps ingesting after recovery, proving the checkpoint's age vector
// re-bases the sliding window correctly: expiry after the restart
// matches a pipeline that never restarted.
func TestWALCheckpointOnCompaction(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := minoaner.EnvDefaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			cfg.CompactionThreshold = 0.2
			ops := recoveryOps(t, 8)

			dir := t.TempDir()
			p, err := minoaner.Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				applyOp(t, p, op)
			}
			sess := p.Current()
			if sess.Compactions() == 0 {
				t.Fatal("workload never crossed the compaction threshold — raise the eviction traffic")
			}
			g := sess.Gauges()
			if g.WALCheckpoints == 0 {
				t.Fatalf("compaction did not checkpoint the log: %+v", g)
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
// frame per op, then recovers the full log and cuts of it at a stride:
// each must equal the from-scratch pipeline over the surviving prefix.
func recoverVariant(t *testing.T, cfg minoaner.Config, ops []walOp) {
	t.Helper()
	raw := recordWorkload(t, cfg, ops)
	expect := expectedDigests(t, cfg, ops)
	stride := 53
	if testing.Short() || raceEnabled {
		stride = 211
	}
	for cut := len(raw); cut >= 0; cut -= stride {
		k, p := surviveAndRecover(t, cfg, raw[:cut])
		if cut == len(raw) && k != len(ops) {
			t.Fatalf("full log holds %d records, want %d", k, len(ops))
		}
		got := finishDigest(t, p)
		p.Close()
		if want := expect(k); got != want {
			t.Fatalf("cut at byte %d (%d records survive): digest %s, want %s", cut, k, got, want)
		}
	}
}

// TestWALRecoveryCompactionRefired opens a log recorded with compaction
// off under a configuration that compacts: the epochs fire for the
// first time while the log is folded. The records are
// configuration-independent wire batches, so this is exactly the log a
// crash between a compaction wave's append and its checkpoint rotation
// leaves behind — and the recovered session must match a never-crashed
// pipeline that compacted all along, digest and epoch count both.
func TestWALRecoveryCompactionRefired(t *testing.T) {
	for _, store := range []string{"", "disk-temp"} {
		for _, ttl := range []int{0, 2} {
			t.Run(fmt.Sprintf("store=%q/ttl=%d", store, ttl), func(t *testing.T) {
				cfg := minoaner.EnvDefaults()
				cfg.Workers = 1
				cfg.Store = store
				cfg.TTL = ttl
				cfg.CompactionThreshold = -1
				ops := recoveryOps(t, 8)
				raw := recordWorkload(t, cfg, ops)

				cfg.CompactionThreshold = 0.2
				k, p := surviveAndRecover(t, cfg, raw)
				if k != len(ops) {
					t.Fatalf("full log holds %d records, want %d", k, len(ops))
				}
				gotEpochs := p.Current().Compactions()
				got := finishDigest(t, p)
				p.Close()

				fresh := minoaner.New(cfg)
				for _, op := range ops {
					applyOp(t, fresh, op)
				}
				wantEpochs := fresh.Current().Compactions()
				want := finishDigest(t, fresh)
				fresh.Close()
				if wantEpochs == 0 {
					t.Fatal("workload never crossed the compaction threshold — raise the eviction traffic")
				}
				if got != want || gotEpochs != wantEpochs {
					t.Fatalf("recovered digest %s after %d epochs, want %s after %d", got, gotEpochs, want, wantEpochs)
				}
			})
		}
	}
}

// TestWALRecoveryTwoStarts: a second Start record opens a fresh session
// over the collection as it stands — every description batch 0 again,
// no compaction epochs — and the records after it stream into that
// session, not the first.
func TestWALRecoveryTwoStarts(t *testing.T) {
	for _, ttl := range []int{0, 2} {
		t.Run(fmt.Sprintf("ttl=%d", ttl), func(t *testing.T) {
			cfg := minoaner.EnvDefaults()
			cfg.Workers = 1
			cfg.TTL = ttl
			cfg.CompactionThreshold = -1
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
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = -1
	recoverVariant(t, cfg, evictToEmptyOps(t))
}

// TestWALRecoveryEmptyCheckpoint: a compaction epoch over a collection
// with nothing live rotates the log to an empty checkpoint, and that
// log recovers — to an empty session that keeps streaming.
func TestWALRecoveryEmptyCheckpoint(t *testing.T) {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = 0.2
	ops := evictToEmptyOps(t)
	raw := recordWorkload(t, cfg, ops)
	_, p := surviveAndRecover(t, cfg, raw)
	defer p.Close()
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
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.TTL = 2
	cfg.CompactionThreshold = -1
	recoverVariant(t, cfg, ops)
}
