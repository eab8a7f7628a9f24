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

// Tombstones returns how many tombstoned ids the session's collection
// holds: none, after any pass.
func (s *Session) Tombstones() int { return s.col.Tombstones() }

// SuppressRotation keeps the pipeline's write-ahead log from rotating to
// a checkpoint, so a test can read it as one frame per mutation.
func (p *Pipeline) SuppressRotation() { p.testNoRotate = true }
