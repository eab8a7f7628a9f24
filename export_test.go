package minoaner

import (
	"repro/internal/kb"
	"repro/internal/pipeline"
)

// WrapEngine replaces the session's front-end engine with wrap(engine),
// so a test can count the passes a wave makes.
func (s *Session) WrapEngine(wrap func(pipeline.Engine) pipeline.Engine) { s.eng = wrap(s.eng) }

// NewWrapped is New with the engine of every session the pipeline opens
// replaced by wrap(engine), so a test can watch Start's pass too.
func NewWrapped(cfg Config, wrap func(pipeline.Engine) pipeline.Engine) *Pipeline {
	p := New(cfg)
	p.testWrapEngine = wrap
	return p
}

// OpenWrapped is Open with the engine of every session the pipeline
// opens replaced by wrap(engine), so a test can count the passes
// recovery makes.
func OpenWrapped(dir string, cfg Config, wrap func(pipeline.Engine) pipeline.Engine) (*Pipeline, error) {
	return NewWrapped(cfg, wrap).open(dir)
}

// Collection returns the collection the session's ids index, so a test
// can run its own front end over it.
func (s *Session) Collection() *kb.Collection { return s.col }

// PipelineOptions returns the front-end options every session pass of
// the pipeline runs with.
func (p *Pipeline) PipelineOptions() pipeline.Options { return p.pipelineOptions() }

// Tombstones returns how many tombstoned ids the session's collection
// holds: none, after any pass.
func (s *Session) Tombstones() int { return s.col.Tombstones() }

// SuppressRotation keeps the pipeline's write-ahead log from rotating to
// a checkpoint, so a test can read it as one frame per mutation.
func (p *Pipeline) SuppressRotation() { p.testNoRotate = true }

// The test helpers the package's own tests define, for the external
// test package.
var (
	HardSessionWorld   = hardSessionWorld
	StreamDescriptions = streamOf
	SameResult         = sameResult
)
