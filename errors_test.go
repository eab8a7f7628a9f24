package minoaner_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

func mustDoc(t *testing.T, w *datagen.World, kbName string) string {
	t.Helper()
	doc, err := rdf.WriteString(w.Triples(kbName))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// The sentinel errors exist so callers — internal/server first among
// them — can branch on failure class with errors.Is instead of
// matching message strings. These tests pin which operations wrap
// which sentinel.

func TestErrBadBatch(t *testing.T) {
	p := minoaner.New(minoaner.Defaults())
	cases := []struct {
		name string
		call func() error
	}{
		{"LoadKB empty name", func() error { return p.LoadKB("", strings.NewReader("")) }},
		{"LoadKBTurtle empty name", func() error { return p.LoadKBTurtle("", strings.NewReader("")) }},
		{"LoadQuads empty default", func() error { return p.LoadQuads("", strings.NewReader("")) }},
		{"AddDescription empty kb", func() error { return p.AddDescription("", "http://x", nil, nil) }},
		{"AddDescription empty uri", func() error { return p.AddDescription("kb", "", nil, nil) }},
		{"Add empty uri in batch", func() error {
			return p.Add([]minoaner.Description{{KB: "kb", URI: ""}})
		}},
		// A subject <> with no @base is a description with an empty URI.
		{"LoadKB empty subject IRI", func() error {
			return p.LoadKB("kb", strings.NewReader(`<> <http://p/name> "x y" .`))
		}},
		{"LoadKBTurtle empty subject IRI", func() error {
			return p.LoadKBTurtle("kb", strings.NewReader(`<> <http://p/name> "x y" .`))
		}},
		{"LoadQuads empty subject IRI", func() error {
			return p.LoadQuads("kb", strings.NewReader(`<> <http://p/name> "x y" <http://g> .`))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, minoaner.ErrBadBatch) {
				t.Errorf("got %v, want errors.Is(err, ErrBadBatch)", err)
			}
		})
	}
}

func TestErrBadBatchSession(t *testing.T) {
	w := hardSessionWorld(t, 41, 30)
	s := loadSession(t, w, minoaner.Defaults())
	if err := s.Ingest([]minoaner.Description{{KB: "", URI: "http://x"}}); !errors.Is(err, minoaner.ErrBadBatch) {
		t.Errorf("Ingest empty kb: got %v, want ErrBadBatch", err)
	}
	if err := s.IngestKB("", strings.NewReader("")); !errors.Is(err, minoaner.ErrBadBatch) {
		t.Errorf("IngestKB empty name: got %v, want ErrBadBatch", err)
	}
	if err := s.IngestKB("alpha", strings.NewReader(`<> <http://p/name> "x y" .`)); !errors.Is(err, minoaner.ErrBadBatch) {
		t.Errorf("IngestKB empty subject IRI: got %v, want ErrBadBatch", err)
	}
	if err := s.EvictKB(""); !errors.Is(err, minoaner.ErrBadBatch) {
		t.Errorf("EvictKB empty name: got %v, want ErrBadBatch", err)
	}
}

func TestErrUnknown(t *testing.T) {
	w := hardSessionWorld(t, 43, 30)
	s := loadSession(t, w, minoaner.Defaults())
	err := s.Evict([]minoaner.Ref{{KB: "alpha", URI: "http://never-loaded"}})
	if !errors.Is(err, minoaner.ErrUnknownDescription) {
		t.Errorf("Evict unknown ref: got %v, want ErrUnknownDescription", err)
	}
	kbErr := s.EvictKB("ghost")
	if !errors.Is(kbErr, minoaner.ErrUnknownKB) {
		t.Errorf("EvictKB unknown name: got %v, want ErrUnknownKB", kbErr)
	}
	// The unknown sentinels must not blur into each other.
	if errors.Is(kbErr, minoaner.ErrUnknownDescription) {
		t.Error("EvictKB error also matches ErrUnknownDescription")
	}
	if errors.Is(err, minoaner.ErrUnknownKB) {
		t.Error("Evict error also matches ErrUnknownKB")
	}
}

// TestFilterRatioAboveOne: block filtering reads a ratio outside
// (0, 1] as 0.8, so Config.FilterRatio 1.5 would filter harder than 1.0
// does. Start rejects it with an error naming the field and creates no
// session; 1.0 and a negative ratio (skip filtering) still start.
func TestFilterRatioAboveOne(t *testing.T) {
	doc := mustDoc(t, hardSessionWorld(t, 53, 30), "alpha")
	for _, tc := range []struct {
		ratio float64
		ok    bool
	}{{1.5, false}, {1.0, true}, {-1, true}} {
		t.Run(fmt.Sprint(tc.ratio), func(t *testing.T) {
			cfg := minoaner.Defaults()
			cfg.FilterRatio = tc.ratio
			p := minoaner.New(cfg)
			defer p.Close()
			if err := p.LoadKB("alpha", strings.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
			_, err := p.Start()
			if tc.ok {
				if err != nil {
					t.Fatalf("FilterRatio %v: %v", tc.ratio, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "FilterRatio") {
				t.Fatalf("FilterRatio %v: err=%v, want an error naming the field", tc.ratio, err)
			}
			if p.Current() != nil {
				t.Fatal("rejected Start left a session behind")
			}
		})
	}
}

// TestMRRunnerConfig pins the knob's surface now that it has no engine
// to select: Defaults does not set it, the empty value starts on the
// sequential and the shared engine alike, and any other value — the
// retired runners' names and a typo alike — fails Start with an error
// naming the field and the value, leaving no session behind.
func TestMRRunnerConfig(t *testing.T) {
	if got := minoaner.Defaults().MRRunner; got != "" {
		t.Errorf("Defaults().MRRunner=%q, want empty", got)
	}
	doc := mustDoc(t, hardSessionWorld(t, 59, 30), "alpha")
	start := func(workers int, runner string) (*minoaner.Pipeline, error) {
		cfg := minoaner.Defaults()
		cfg.Workers = workers
		cfg.MRRunner = runner
		p := minoaner.New(cfg)
		t.Cleanup(func() { p.Close() })
		if err := p.LoadKB("alpha", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		_, err := p.Start()
		return p, err
	}
	for _, workers := range []int{1, 4} {
		if _, err := start(workers, ""); err != nil {
			t.Fatalf("workers=%d, empty runner: %v", workers, err)
		}
	}
	for _, runner := range []string{"local", "proc", "bogus"} {
		p, err := start(4, runner)
		if err == nil || !strings.Contains(err.Error(), "MRRunner") || !strings.Contains(err.Error(), runner) {
			t.Fatalf("runner %q: err=%v, want the field and the value named", runner, err)
		}
		if p.Current() != nil {
			t.Fatalf("runner %q: the rejected Start left a session behind", runner)
		}
	}
}

// TestErrSessionClosed pins the supersession contract: once a newer
// Start replaces a session, every streaming call on the old one wraps
// ErrSessionClosed — the condition internal/server maps to 409.
func TestErrSessionClosed(t *testing.T) {
	w := hardSessionWorld(t, 47, 30)
	p := minoaner.New(minoaner.Defaults())
	if err := p.LoadKB("alpha", strings.NewReader(mustDoc(t, w, "alpha"))); err != nil {
		t.Fatal(err)
	}
	old, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"Ingest", func() error { return old.Ingest([]minoaner.Description{{KB: "alpha", URI: "http://x"}}) }},
		{"IngestKB", func() error { return old.IngestKB("alpha", strings.NewReader("")) }},
		{"Evict", func() error { return old.Evict([]minoaner.Ref{{KB: "alpha", URI: "http://x"}}) }},
		{"EvictKB", func() error { return old.EvictKB("alpha") }},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, minoaner.ErrSessionClosed) {
				t.Errorf("got %v, want errors.Is(err, ErrSessionClosed)", err)
			}
			if errors.Is(err, minoaner.ErrBadBatch) {
				t.Error("supersession error also matches ErrBadBatch")
			}
		})
	}
}
