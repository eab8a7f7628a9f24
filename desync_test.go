// In-package regression tests for the failure semantics of a pass: a
// mutation only logs and folds, and the next read makes the pass. A
// pass that dies leaves the collection — and the log — ahead of what
// the session serves, so the session must poison itself with
// ErrDesynced at that read instead of silently serving the
// desynchronized view. The faults are injected through an engine stub
// wrapping the real one, at its last stage, Prune — the only way to
// make a pass fail on demand.
package minoaner

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metablocking"
	"repro/internal/pipeline"
)

// faultyEngine delegates to a real engine until a fault is armed.
type faultyEngine struct {
	pipeline.Engine
	fail bool
}

var errInjected = errors.New("injected engine fault")

func (f *faultyEngine) Prune(g *metablocking.Graph, alg metablocking.Pruning, opts metablocking.PruneOptions) ([]metablocking.Edge, error) {
	if f.fail {
		return nil, errInjected
	}
	return f.Engine.Prune(g, alg, opts)
}

func dsc(kbName, uri, name string) Description {
	return Description{KB: kbName, URI: uri, Attrs: []Attribute{{Predicate: "name", Value: name}}}
}

func desyncSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	p := New(cfg)
	if err := p.Add([]Description{
		dsc("a", "u1", "alpha one"), dsc("a", "u2", "beta two"),
		dsc("b", "v1", "alpha one"), dsc("b", "v2", "beta two"),
	}); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantDesynced(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrDesynced) {
		t.Fatalf("%s = %v, want ErrDesynced", what, err)
	}
}

// TestDesyncEvictFault poisons via the pass the read after an eviction
// makes: the eviction itself was logged and folded — the tombstones
// landed in the collection — and returned nil, so the read that makes
// the failing pass reports the poison, and the session must refuse
// everything afterwards — even after the fault clears — while Pending
// and Gauges keep the last good pass's numbers.
func TestDesyncEvictFault(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	fe := &faultyEngine{Engine: s.eng, fail: true}
	s.eng = fe
	pending, gauges := s.Pending(), s.Gauges()

	if err := s.Evict([]Ref{{KB: "a", URI: "u1"}}); err != nil {
		t.Fatalf("Evict = %v; a mutation makes no pass, so it cannot fail there", err)
	}
	_, err := s.Resume(0)
	wantDesynced(t, "Resume after the eviction", err)
	if !errors.Is(err, errInjected) {
		t.Fatalf("poison lost its cause: %v", err)
	}
	if got := s.Pending(); got != pending {
		t.Fatalf("Pending after poison = %d, the last good pass's %d", got, pending)
	}
	if got := s.Gauges(); got != gauges {
		t.Fatalf("Gauges after poison = %+v, the last good pass's %+v", got, gauges)
	}

	fe.fail = false // healing the engine must not unpoison
	wantDesynced(t, "Ingest after poison", s.Ingest([]Description{dsc("a", "u9", "gamma")}))
	wantDesynced(t, "Evict after poison", s.Evict([]Ref{{KB: "a", URI: "u2"}}))
	wantDesynced(t, "EvictKB after poison", s.EvictKB("a"))
	_, err = s.Resume(0)
	wantDesynced(t, "Resume after poison", err)
	sn, err := s.Snapshot()
	wantDesynced(t, "Snapshot after poison", err)
	if sn != nil {
		t.Fatal("a poisoned session returned a snapshot")
	}

	// The documented recovery: a fresh Start over the shared collection
	// rebuilds everything from scratch and resolves normally.
	fresh, err := s.p.Start()
	if err != nil {
		t.Fatalf("Start after poison: %v", err)
	}
	if _, err := fresh.Resume(0); err != nil {
		t.Fatalf("fresh session Resume: %v", err)
	}
}

// TestDesyncIngestFault poisons via the pass the read after an ingest
// makes — the batch is already in the collection, the resolver never
// saw it.
func TestDesyncIngestFault(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, fail: true}

	if err := s.Ingest([]Description{dsc("a", "u3", "gamma three")}); err != nil {
		t.Fatalf("Ingest = %v; a mutation makes no pass, so it cannot fail there", err)
	}
	_, err := s.Snapshot()
	wantDesynced(t, "Snapshot after the ingest", err)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "Snapshot: pass") {
		t.Fatalf("poison lost its cause or the read that failed: %v", err)
	}
	_, err = s.Resume(0)
	wantDesynced(t, "Resume after poison", err)
}

// TestDesyncMidPass fails the single pass the read after a TTL ingest
// makes: the new batch is already in the collection and the batch it
// pushed out of the window already tombstoned when the pass — made by
// Pending, which reports no error of its own — dies. The next mutation
// reports the poison, naming Pending as the read whose pass failed, and
// so does every one after it.
func TestDesyncMidPass(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	cfg.TTL = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, fail: true}

	if err := s.Ingest([]Description{dsc("a", "u3", "gamma three"), dsc("b", "v3", "gamma three")}); err != nil {
		t.Fatalf("Ingest with TTL expiry = %v; a mutation makes no pass, so it cannot fail there", err)
	}
	s.Pending()
	err := s.Ingest([]Description{dsc("a", "u4", "delta four")})
	wantDesynced(t, "Ingest after the failed pass", err)
	if !strings.Contains(err.Error(), errInjected.Error()) || !strings.Contains(err.Error(), "Pending: pass") {
		t.Fatalf("poison does not name the cause and the read that failed: %v", err)
	}
	// Sticky: the same error again, not a new pass.
	if again := s.Ingest([]Description{dsc("a", "u5", "epsilon five")}); again != err {
		t.Fatalf("second Ingest = %v, want the same poison %v", again, err)
	}
}
