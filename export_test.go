package minoaner

import (
	"repro/internal/metablocking"
	"repro/internal/pipeline"
)

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
