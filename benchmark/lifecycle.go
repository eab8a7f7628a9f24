package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	minoaner "repro"
)

// lifeSpec is what a child process is told to do for one scenario
// iteration: which inputs to read, which durability to switch on, and
// where to leave the final result for the parent's correctness gate.
type lifeSpec struct {
	KBs       []kbFile `json:"kbs"`
	WavesPath string   `json:"wavesPath,omitempty"`
	// WALDir and StoreDir, when set, run the session through Open with
	// FsyncWave and the disk store; empty runs it through New, all in RAM.
	WALDir   string `json:"walDir,omitempty"`
	StoreDir string `json:"storeDir,omitempty"`
	// Hold makes the child wait to be killed after it has reported, so a
	// durable session ends in a real SIGKILL with no Close.
	Hold bool `json:"hold,omitempty"`
	// ProbeWaves are applied after the scenario proper, outside RunS:
	// the traced batch run uses them so the session layer's streaming
	// calls are measured at batch scale too.
	ProbeWavesPath string `json:"probeWavesPath,omitempty"`
	Trace          bool   `json:"trace,omitempty"`
	ResultPath     string `json:"resultPath"`
}

// lifeReport is what one scenario iteration measured from inside the
// process under test. CPU time comes from the parent's rusage of the
// child instead.
type lifeReport struct {
	// ReadyS is process start → a session that can answer: the KBs
	// loaded and Start returned, or Open recovered the log.
	ReadyS float64 `json:"readyS"`
	// RunS is process start → the last wave resumed.
	RunS     float64   `json:"runS"`
	IngestMS []float64 `json:"ingestMS,omitempty"`
	EvictMS  []float64 `json:"evictMS,omitempty"`
	// Processed counts descriptions loaded, ingested and evicted.
	Processed int `json:"processed"`
	Live      int `json:"live"`
	// Attempted counts the calls into the session; one that fails ends
	// the child, and with it the run, with an error.
	Attempted int             `json:"attempted"`
	PeakRSSMB float64         `json:"peakRSSMB"`
	Gauges    minoaner.Gauges `json:"gauges"`
	Spans     []span          `json:"spans,omitempty"`
}

// sessionConfig is the configuration every workload runs under: what
// users get from Defaults (Workers 0 → GOMAXPROCS), with the two
// environment overrides Defaults reads for CI cleared.
func sessionConfig(spec lifeSpec) minoaner.Config {
	cfg := minoaner.Defaults()
	cfg.Store, cfg.MRRunner = "", ""
	if spec.WALDir != "" {
		cfg.WALFsync = minoaner.FsyncWave
		cfg.Store, cfg.StoreDir = "disk", spec.StoreDir
	}
	return cfg
}

// runLife drives one session through its life — load, Start, Resume to
// exhaustion, then each wave as Ingest|Evict → SyncWAL → Resume(0) —
// or, when the log under WALDir already holds a session, recovers it
// and resumes. Every call into the session is a span when rec is set.
func runLife(rec *recorder, t0 time.Time, spec lifeSpec) (*lifeReport, *minoaner.Result, error) {
	var waves, probes []wave
	if spec.WavesPath != "" {
		if err := readJSON(spec.WavesPath, &waves); err != nil {
			return nil, nil, err
		}
	}
	if spec.ProbeWavesPath != "" {
		if err := readJSON(spec.ProbeWavesPath, &probes); err != nil {
			return nil, nil, err
		}
	}
	cfg := sessionConfig(spec)
	rep := &lifeReport{}
	var res *minoaner.Result
	var sess *minoaner.Session
	var err error

	runWave := func(w wave) error {
		t := time.Now()
		rep.Attempted++
		if len(w.Ingest) > 0 {
			rec.in("session.ingest", func() { err = sess.Ingest(w.Ingest) })
		} else {
			rec.in("session.evict", func() { err = sess.Evict(w.Evict) })
		}
		if err != nil {
			return fmt.Errorf("wave: %w", err)
		}
		rec.in("wal.sync", func() { err = sess.SyncWAL() })
		if err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		rec.in("session.resume", func() { res, err = sess.Resume(0) })
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		ms := float64(time.Since(t)) / 1e6
		if len(w.Ingest) > 0 {
			rep.IngestMS = append(rep.IngestMS, ms)
		} else {
			rep.EvictMS = append(rep.EvictMS, ms)
		}
		rep.Processed += len(w.Ingest) + len(w.Evict)
		return nil
	}

	rec.in("run", func() {
		var p *minoaner.Pipeline
		if spec.WALDir != "" {
			rec.in("session.open", func() { p, err = minoaner.Open(spec.WALDir, cfg) })
			if err != nil {
				err = fmt.Errorf("open: %w", err)
				return
			}
			sess = p.Current()
		} else {
			p = minoaner.New(cfg)
		}
		if sess == nil {
			rec.in("session.load", func() {
				for _, kf := range spec.KBs {
					if err = p.LoadKBFile(kf.Name, kf.Path); err != nil {
						return
					}
				}
			})
			if err != nil {
				err = fmt.Errorf("load: %w", err)
				return
			}
			rep.Processed = p.NumDescriptions()
			rec.in("session.start", func() { sess, err = p.Start() })
			if err != nil {
				err = fmt.Errorf("start: %w", err)
				return
			}
		}
		rep.Attempted++
		rep.ReadyS = time.Since(t0).Seconds()
		rec.in("session.resume", func() { res, err = sess.Resume(0) })
		if err != nil {
			err = fmt.Errorf("resume: %w", err)
			return
		}
		for _, w := range waves {
			if err = runWave(w); err != nil {
				return
			}
		}
		rep.RunS = time.Since(t0).Seconds()
		rep.Live = p.NumDescriptions()
	})
	if err != nil {
		return rep, nil, err
	}
	final := res // the probe tail below must not change what the scenario produced
	if len(probes) > 0 {
		rec.in("probe", func() {
			for _, w := range probes {
				if err = runWave(w); err != nil {
					return
				}
			}
		})
		if err != nil {
			return rep, nil, err
		}
	}
	rep.Gauges = sess.Gauges()
	if rec != nil {
		rep.Spans = rec.spans
	}
	return rep, final, nil
}

// childMain is the entry point of a scenario iteration's own process:
// run the life described by the spec file, leave the result on disk,
// print the report as one JSON line.
func childMain(t0 time.Time, specPath string) error {
	var spec lifeSpec
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
	}
	rep, res, err := runLife(rec, t0, spec)
	if err != nil {
		return err
	}
	if err := writeJSON(spec.ResultPath, res); err != nil {
		return err
	}
	if rep.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return err
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return err
	}
	if spec.Hold {
		// Closing stdout tells the parent the report is complete; it then
		// kills this process, which must not run any deferred Close.
		os.Stdout.Close()
		for {
			time.Sleep(time.Hour)
		}
	}
	return nil
}
