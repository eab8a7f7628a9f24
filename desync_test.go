// In-package regression tests for the failure semantics of a wave: a
// wave whose front-end pass dies leaves the collection — and the log —
// ahead of what the session serves, so the session must poison itself
// with ErrDesynced instead of silently serving the desynchronized view.
// The faults are injected through an engine stub wrapping the real one,
// at its last stage, Prune — the only way to make a pass fail on
// demand. A wave makes one pass, charged as an eviction if anything
// departed and as an ingest otherwise; the poison names which.
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

// wantKind fails unless the poison charges the failed pass to the given
// kind of wave ("ingest" or "evict").
func wantKind(t *testing.T, err error, kind string) {
	t.Helper()
	if !strings.Contains(err.Error(), "minoaner: "+kind+": ") {
		t.Fatalf("poison does not charge the pass to %s: %v", kind, err)
	}
}

// TestDesyncEvictFault poisons via an eviction wave's failing pass: the
// tombstones already landed in the collection and the record in the
// log, so the session must refuse everything afterwards — even after
// the fault clears.
func TestDesyncEvictFault(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	fe := &faultyEngine{Engine: s.eng, fail: true}
	s.eng = fe

	err := s.Evict([]Ref{{KB: "a", URI: "u1"}})
	wantDesynced(t, "Evict", err)
	if !errors.Is(err, errInjected) {
		t.Fatalf("poison lost its cause: %v", err)
	}
	wantKind(t, err, "evict")

	fe.fail = false // healing the engine must not unpoison
	wantDesynced(t, "Ingest after poison", s.Ingest([]Description{dsc("a", "u9", "gamma")}))
	wantDesynced(t, "Evict after poison", s.Evict([]Ref{{KB: "a", URI: "u2"}}))
	wantDesynced(t, "EvictKB after poison", s.EvictKB("a"))
	_, err = s.Resume(0)
	wantDesynced(t, "Resume after poison", err)

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

// TestDesyncIngestFault poisons via an ingest wave's failing pass — the
// batch is already in the collection, the resolver never saw it.
func TestDesyncIngestFault(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, fail: true}

	err := s.Ingest([]Description{dsc("a", "u3", "gamma three")})
	wantDesynced(t, "Ingest", err)
	wantKind(t, err, "ingest")
	_, err = s.Resume(0)
	wantDesynced(t, "Resume after poison", err)
}

// TestDesyncMidPass fails the single pass of a TTL wave: the new batch
// is already in the collection and the batch it pushed out of the
// window already tombstoned when the pass — charged as an eviction,
// since something departed — dies.
func TestDesyncMidPass(t *testing.T) {
	cfg := Defaults()
	cfg.Workers = 1
	cfg.TTL = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, fail: true}

	err := s.Ingest([]Description{dsc("a", "u3", "gamma three"), dsc("b", "v3", "gamma three")})
	wantDesynced(t, "Ingest with TTL expiry", err)
	if !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("poison does not name the cause: %v", err)
	}
	wantKind(t, err, "evict")
	// Sticky: the same error again, not a new pass.
	again := s.Ingest([]Description{dsc("a", "u4", "delta four")})
	if !errors.Is(again, ErrDesynced) {
		t.Fatalf("second Ingest = %v, want ErrDesynced", again)
	}
}
