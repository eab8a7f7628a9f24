// In-package regression tests for the failure semantics of syncFront:
// a wave whose front-end pass dies leaves the collection — and the
// log — ahead of what the session serves, so the session must poison
// itself with ErrDesynced instead of silently serving the
// desynchronized view. The faults are injected through an engine stub
// wrapping the real one — the only way to make eng.Ingest/eng.Evict
// fail on demand. A wave makes one pass: Evict if anything departed,
// Ingest otherwise.
package minoaner

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// faultyEngine delegates to a real engine until a fault is armed.
type faultyEngine struct {
	pipeline.Engine
	failIngest bool
	failEvict  bool
}

var errInjected = errors.New("injected engine fault")

func (f *faultyEngine) Ingest(st *pipeline.State) error {
	if f.failIngest {
		return errInjected
	}
	return f.Engine.Ingest(st)
}

func (f *faultyEngine) Evict(st *pipeline.State) error {
	if f.failEvict {
		return errInjected
	}
	return f.Engine.Evict(st)
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

// TestDesyncEvictFault poisons via a failing engine Evict: the
// tombstones already landed in the collection and the record in the
// log, so the session must refuse everything afterwards — even after
// the fault clears.
func TestDesyncEvictFault(t *testing.T) {
	cfg := EnvDefaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	fe := &faultyEngine{Engine: s.eng, failEvict: true}
	s.eng = fe

	err := s.Evict([]Ref{{KB: "a", URI: "u1"}})
	wantDesynced(t, "Evict", err)
	if !errors.Is(err, errInjected) {
		t.Fatalf("poison lost its cause: %v", err)
	}

	fe.failEvict = false // healing the engine must not unpoison
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

// TestDesyncIngestFault poisons via a failing engine Ingest — the batch
// is already in the collection, the front never advanced.
func TestDesyncIngestFault(t *testing.T) {
	cfg := EnvDefaults()
	cfg.Workers = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, failIngest: true}

	wantDesynced(t, "Ingest", s.Ingest([]Description{dsc("a", "u3", "gamma three")}))
	_, err := s.Resume(0)
	wantDesynced(t, "Resume after poison", err)
}

// TestDesyncMidPass fails the single pass of a TTL wave: the new batch
// is already in the collection and the batch it pushed out of the
// window already tombstoned when the pass — an Evict, since something
// departed — dies.
func TestDesyncMidPass(t *testing.T) {
	cfg := EnvDefaults()
	cfg.Workers = 1
	cfg.TTL = 1
	s := desyncSession(t, cfg)
	s.eng = &faultyEngine{Engine: s.eng, failEvict: true}

	err := s.Ingest([]Description{dsc("a", "u3", "gamma three"), dsc("b", "v3", "gamma three")})
	wantDesynced(t, "Ingest with TTL expiry", err)
	if !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("poison does not name the cause: %v", err)
	}
	// Sticky: the same error again, not a new pass.
	again := s.Ingest([]Description{dsc("a", "u4", "delta four")})
	if !errors.Is(again, ErrDesynced) {
		t.Fatalf("second Ingest = %v, want ErrDesynced", again)
	}
}
