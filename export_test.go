package minoaner

import (
	"os"

	"repro/internal/mapreduce"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
)

// EnvDefaults is Defaults with the store mode and the MapReduce runner
// taken from MINOANER_STORE ("mem", "disk-temp") and MINOANER_MR_RUNNER
// ("local", "proc"): how CI's store and runner legs drive this
// package's differential suites through a cold store or worker
// subprocesses without touching a call site. Tests that need a
// specific mode set Config.Store / Config.MRRunner after it.
func EnvDefaults() Config {
	cfg := Defaults()
	cfg.Store = os.Getenv("MINOANER_STORE")
	cfg.MRRunner = os.Getenv("MINOANER_MR_RUNNER")
	return cfg
}

// MRProcRunner exposes the pipeline's shared worker pool to tests —
// the fault-injection hooks (KillNextTask) and the Spawned gauge live
// on the runner, and the differential matrix needs to reach them
// through the public API surface it exercises.
func (p *Pipeline) MRProcRunner() *mapreduce.ProcRunner { return p.mrProc }

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
