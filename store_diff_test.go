// Store-axis differential suite: the cold store moves bytes, never
// bits. Every configuration of Config.Store — "" (all in RAM), "mem"
// (the in-memory reference store), "disk" (paged segment files) — must
// produce byte-identical resolution digests under the same workload,
// across engines, TTL windows, compaction epochs, and WAL recovery.
// The disk-store crash sweep extends the WAL recovery suite (S4): a
// SIGKILL at any WAL byte offset leaves whatever segment bytes were in
// flight, and recovery must reset the store and rebuild it from the
// log's durable prefix alone.
package minoaner_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	minoaner "repro"
)

// withStore returns cfg routed through the given store mode, minting a
// fresh segment directory for "disk".
func withStore(t *testing.T, cfg minoaner.Config, mode string) minoaner.Config {
	t.Helper()
	cfg.Store = mode
	cfg.StoreDir = ""
	if mode == "disk" {
		cfg.StoreDir = t.TempDir()
	}
	return cfg
}

// runOpsDigest applies the scripted workload to a fresh (non-logged)
// pipeline under cfg and resolves it to the canonical digest.
func runOpsDigest(t *testing.T, cfg minoaner.Config, ops []walOp) string {
	t.Helper()
	p := minoaner.New(cfg)
	defer p.Close()
	for _, op := range ops {
		applyOp(t, p, op)
	}
	return finishDigest(t, p)
}

// TestStoreAxisDifferential is the tentpole's correctness proof: the
// standard ingest/evict workload, swept across engines and the
// TTL/compaction scenarios, digests identically whether the cold
// structures live in RAM, behind the mem store, or behind disk
// segments. The compaction scenario drives a full epoch through the
// store — survivor re-encode under the next epoch, old-epoch drop,
// segment rewrite, index flush, graph respill — and still must not
// move a bit.
func TestStoreAxisDifferential(t *testing.T) {
	engines := []struct {
		name    string
		workers int
		mr      bool
	}{
		{"sequential", 1, false},
		{"shared", 4, false},
		{"mapreduce", 4, true},
	}
	scenarios := []struct {
		name string
		ttl  int
		thr  float64
	}{
		{"plain", 0, -1},
		{"ttl", 2, -1},
		{"ttl+compaction", 2, 0.2},
	}
	for _, eng := range engines {
		for _, sc := range scenarios {
			t.Run(eng.name+"/"+sc.name, func(t *testing.T) {
				cfg := minoaner.EnvDefaults()
				cfg.Workers = eng.workers
				cfg.MapReduce = eng.mr
				cfg.TTL = sc.ttl
				cfg.CompactionThreshold = sc.thr
				ops := recoveryOps(t, 8)

				want := runOpsDigest(t, withStore(t, cfg, ""), ops)
				if want == "empty" {
					t.Fatal("workload resolves to nothing — the axis would prove nothing")
				}
				for _, mode := range []string{"mem", "disk"} {
					// Tiny caches force real paging traffic: most reads
					// must miss the LRU and decode from the store.
					scfg := withStore(t, cfg, mode)
					scfg.DescCache = 4
					if got := runOpsDigest(t, scfg, ops); got != want {
						t.Errorf("store=%s digest %s, want the storeless %s", mode, got, want)
					}
				}
			})
		}
	}
}

// TestStoreAxisWALRecovery crosses the store axis with full-log
// recovery: a workload recorded under each store mode reopens —
// resetting and rebuilding the store through replay — to the digest of
// a storeless pipeline that never restarted.
func TestStoreAxisWALRecovery(t *testing.T) {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.TTL = 2
	cfg.CompactionThreshold = 0.2 // recovery crosses a checkpointed epoch too
	ops := recoveryOps(t, 8)
	want := runOpsDigest(t, cfg, ops)

	for _, mode := range []string{"mem", "disk"} {
		t.Run(mode, func(t *testing.T) {
			scfg := withStore(t, cfg, mode)
			dir := t.TempDir()
			p, err := minoaner.Open(dir, scfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				applyOp(t, p, op)
			}
			if p.Current().Compactions() == 0 {
				t.Fatal("workload never compacted — the epoch path went unexercised")
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			rp, err := minoaner.Open(dir, scfg)
			if err != nil {
				t.Fatal(err)
			}
			got := finishDigest(t, rp)
			if err := rp.Close(); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("recovered store=%s digest %s, want %s", mode, got, want)
			}
		})
	}
}

// TestWALRecoveryDiskStoreSweep is the S4 crash sweep: the recorded
// log is cut at byte offsets — the state a SIGKILL mid-segment-write
// leaves, since the store may have run arbitrarily far ahead of the
// log's durable prefix — and each recovery, over a store directory
// seeded with a torn segment from the doomed process, must digest to
// the from-scratch session over the surviving records. The store is
// derived state: recovery resets it, so no segment byte ever
// influences the outcome.
func TestWALRecoveryDiskStoreSweep(t *testing.T) {
	cfg := minoaner.EnvDefaults()
	cfg.Workers = 1
	cfg.CompactionThreshold = -1 // one frame per op: cuts map to op prefixes
	ops := recoveryOps(t, 8)

	wcfg := withStore(t, cfg, "disk")
	raw := recordWorkload(t, wcfg, ops)
	// The oracle runs storeless: TestStoreAxisDifferential established
	// digests are store-invariant, so one prefix table serves both.
	expect := expectedDigests(t, cfg, ops)

	stride := 41
	if testing.Short() || raceEnabled {
		stride = 241
	}
	t.Logf("sweeping %d byte offsets (stride %d)", len(raw)+1, stride)
	for cut := 0; cut <= len(raw); cut += stride {
		rcfg := withStore(t, cfg, "disk")
		garbage := filepath.Join(rcfg.StoreDir, "seg-000000.dat")
		if err := os.WriteFile(garbage, []byte("torn mid-write segment"), 0o644); err != nil {
			t.Fatal(err)
		}
		k, p := surviveAndRecover(t, rcfg, raw[:cut])
		got := finishDigest(t, p)
		p.Close()
		if want := expect(k); got != want {
			t.Fatalf("disk-store cut at byte %d (%d records survive): digest %s, want %s",
				cut, k, got, want)
		}
	}
}

// TestStoreGauges checks the operator surface: a disk-backed session
// reports segment bytes with a resident footprint well below them,
// live keys, and cache traffic; the mem store reports Resident ==
// Bytes. Storeless sessions keep all five gauges at zero (and out of
// the /status JSON).
func TestStoreGauges(t *testing.T) {
	base := minoaner.EnvDefaults()
	base.Workers = 1
	base.Store = "" // pin storeless: CI's MINOANER_STORE leg must not leak in
	ops := recoveryOps(t, 12)

	session := func(cfg minoaner.Config) *minoaner.Session {
		p := minoaner.New(cfg)
		t.Cleanup(func() { p.Close() })
		for _, op := range ops {
			applyOp(t, p, op)
		}
		return p.Current()
	}

	if g := session(base).Gauges(); g.StoreBytes != 0 || g.StoreResidentBytes != 0 || g.StoreKeys != 0 ||
		g.StoreCacheHits != 0 || g.StoreCacheMisses != 0 {
		t.Fatalf("storeless session reports store gauges: %+v", g)
	}

	mcfg := withStore(t, base, "mem")
	if g := session(mcfg).Gauges(); g.StoreBytes == 0 || g.StoreResidentBytes != g.StoreBytes || g.StoreKeys == 0 {
		t.Fatalf("mem store gauges: %+v", g)
	}

	dcfg := withStore(t, base, "disk")
	dcfg.DescCache = 4
	g := session(dcfg).Gauges()
	if g.StoreBytes == 0 || g.StoreKeys == 0 {
		t.Fatalf("disk store gauges empty: %+v", g)
	}
	if g.StoreResidentBytes*2 > g.StoreBytes {
		t.Fatalf("disk store resident %d not well below stored %d", g.StoreResidentBytes, g.StoreBytes)
	}
	if g.StoreCacheHits+g.StoreCacheMisses == 0 {
		t.Fatalf("no cache traffic recorded: %+v", g)
	}
}

// TestStoreConfigErrors pins the constructor-time validation: "disk"
// without a directory and unknown modes fail on the first mutation (or
// at Open) instead of silently running storeless.
func TestStoreConfigErrors(t *testing.T) {
	d := []minoaner.Description{{KB: "a", URI: "http://x/1",
		Attrs: []minoaner.Attribute{{Predicate: "name", Value: "one"}}}}

	cfg := minoaner.EnvDefaults()
	cfg.Store = "disk"
	if err := minoaner.New(cfg).Add(d); err == nil {
		t.Fatal("disk store without StoreDir accepted")
	}
	if _, err := minoaner.Open(t.TempDir(), cfg); err == nil {
		t.Fatal("Open with disk store and no StoreDir accepted")
	}

	cfg = minoaner.EnvDefaults()
	cfg.Store = "bogus"
	err := minoaner.New(cfg).Add(d)
	if err == nil {
		t.Fatal("unknown store mode accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown-mode error does not name the mode: %v", err)
	}
}
