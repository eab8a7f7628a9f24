// Config.Store and Config.StoreDir are inert: description bodies
// always live in RAM. The fields keep their old validation, and a
// pipeline configured with a disk store resolves exactly like one
// without, writing nothing under StoreDir.
package minoaner_test

import (
	"os"
	"strings"
	"testing"

	minoaner "repro"
)

// TestStoreIsInert drives a write-ahead-logged pipeline configured with
// Store "disk" through ingest and evict waves, a log rotation, Close
// and recovery by Open. The recovered session must digest like a
// storeless pipeline that never restarted, and StoreDir must stay
// empty.
func TestStoreIsInert(t *testing.T) {
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	cfg.TTL = 2
	ops := recoveryOps(t, 8)

	fresh := minoaner.New(cfg)
	for _, op := range ops {
		applyOp(t, fresh, op)
	}
	want := finishDigest(t, fresh)
	if want == "empty" {
		t.Fatal("workload resolves to nothing: the comparison would prove nothing")
	}

	cfg.Store, cfg.StoreDir = "disk", t.TempDir()
	dir := t.TempDir()
	p, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, p, op)
	}
	if p.Current().Gauges().WALCheckpoints == 0 {
		t.Fatal("workload never rotated the log: the checkpoint path went unexercised")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rp, err := minoaner.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := finishDigest(t, rp)
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recovered digest under Store \"disk\" %s, want the storeless %s", got, want)
	}
	left, err := os.ReadDir(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("StoreDir holds %s", e.Name())
	}
}

// TestStoreConfigErrors pins the validation the inert fields keep:
// "disk" without a directory and unknown modes fail on the first
// mutation (or at Open).
func TestStoreConfigErrors(t *testing.T) {
	d := []minoaner.Description{{KB: "a", URI: "http://x/1",
		Attrs: []minoaner.Attribute{{Predicate: "name", Value: "one"}}}}

	cfg := minoaner.Defaults()
	cfg.Store = "disk"
	if err := minoaner.New(cfg).Add(d); err == nil {
		t.Fatal("disk store without StoreDir accepted")
	}
	if _, err := minoaner.Open(t.TempDir(), cfg); err == nil {
		t.Fatal("Open with disk store and no StoreDir accepted")
	}

	cfg = minoaner.Defaults()
	cfg.Store = "bogus"
	err := minoaner.New(cfg).Add(d)
	if err == nil {
		t.Fatal("unknown store mode accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown-mode error does not name the mode: %v", err)
	}
}
