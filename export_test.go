package minoaner

import (
	"repro/internal/mapreduce"
	"repro/internal/pipeline"
)

// MRProcRunner exposes the pipeline's shared worker pool to tests —
// the fault-injection hooks (KillNextTask) and the Spawned gauge live
// on the runner, and the differential matrix needs to reach them
// through the public API surface it exercises.
func (p *Pipeline) MRProcRunner() *mapreduce.ProcRunner { return p.mrProc }

// WrapEngine replaces the session's front-end engine with wrap(engine),
// so a test can count the passes a wave makes.
func (s *Session) WrapEngine(wrap func(pipeline.Engine) pipeline.Engine) { s.eng = wrap(s.eng) }
