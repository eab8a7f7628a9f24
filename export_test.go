package minoaner

import (
	"os"

	"repro/internal/metablocking"
	"repro/internal/pipeline"
)

// EnvDefaults is Defaults with the store mode taken from
// MINOANER_STORE (CI's store leg sets "disk-temp"): how that leg drives
// this package's differential suites through the disk store without
// touching a call site. Tests that need a specific mode set
// Config.Store after it.
func EnvDefaults() Config {
	cfg := Defaults()
	cfg.Store = os.Getenv("MINOANER_STORE")
	return cfg
}

// WrapEngine replaces the session's front-end engine with wrap(engine),
// so a test can count the passes a wave makes.
func (s *Session) WrapEngine(wrap func(pipeline.Engine) pipeline.Engine) { s.eng = wrap(s.eng) }

// OpenWrapped is Open with the engine of every session the pipeline
// opens replaced by wrap(engine), so a test can count the passes
// recovery makes.
func OpenWrapped(dir string, cfg Config, wrap func(pipeline.Engine) pipeline.Engine) (*Pipeline, error) {
	p := New(cfg)
	p.testWrapEngine = wrap
	return p.open(dir)
}

// FrontGraph returns the blocking graph of the session's latest
// front-end pass, so a test can see whether its arrays are resident.
func (s *Session) FrontGraph() *metablocking.Graph { return s.fstate.Front.Graph }

// StoreKeys counts the keys under prefix in the pipeline's cold store
// (0 without a store).
func (p *Pipeline) StoreKeys(prefix string) (int, error) {
	n := 0
	if p.store == nil {
		return 0, nil
	}
	err := p.store.ScanKeys([]byte(prefix), func([]byte) error { n++; return nil })
	return n, err
}
