// Package minoaner is the public API of the Minoan ER reproduction: a
// progressive entity-resolution pipeline for Web-of-Data knowledge
// bases (EDBT 2016, Efthymiou, Stefanidis, Christophides).
//
// The pipeline mirrors Figure 1 of the paper:
//
//	LoadKB → blocking → meta-blocking → scheduling → matching → update
//
// Load one or more knowledge bases as N-Triples, then call Resolve (or
// ResolveBudget for a pay-as-you-go run under a comparison budget).
// The result holds the confirmed matches in the order they were found,
// the final clusters, and per-stage statistics; SameAs serializes the
// discovered links back to owl:sameAs N-Triples.
//
//	p := minoaner.New(minoaner.Defaults())
//	if err := p.LoadKB("dbp", dbpReader); err != nil { ... }
//	if err := p.LoadKB("geo", geoReader); err != nil { ... }
//	res, err := p.Resolve()
//	for _, m := range res.Matches { fmt.Println(m.A.URI, "==", m.B.URI) }
package minoaner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/parmeta"
	"repro/internal/pipeline"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/tokenize"
	"repro/internal/wal"
)

// ErrUnknownDescription reports an Evict of a reference the session
// does not hold — never loaded, or already evicted. Test with
// errors.Is; the wrapping error names the offending reference.
var ErrUnknownDescription = errors.New("unknown description")

// ErrUnknownKB reports an EvictKB of a name no loaded description ever
// carried. Test with errors.Is.
var ErrUnknownKB = errors.New("unknown knowledge base")

// ErrSessionClosed reports a streaming call — Ingest, Evict, or a
// post-Start load — on a session that is no longer its pipeline's
// current one: a newer Start superseded it. The session still resolves
// its frozen view; only mutation is refused. Test with errors.Is.
var ErrSessionClosed = errors.New("session closed")

// ErrBadBatch reports input that fails validation before anything is
// mutated: a description or reference with an empty KB name or URI, or
// an empty KB name handed to a load. Test with errors.Is; the wrapping
// error describes the offending item.
var ErrBadBatch = errors.New("bad batch")

// ErrDesynced reports a session whose streaming maintenance pass
// failed mid-way: the front-end advanced (or retreated) but the
// matcher and resolver were never rebuilt over the new state, so reads
// would silently disagree with the corpus. The session is poisoned —
// every later mutation and Resume refuses with this error rather than
// serve the desynchronized state. Recovery is a restart: a
// write-ahead-logged session (see Open) replays its log into a fresh,
// consistent session; the already-committed reads of this one remain
// servable via Snapshot. Test with errors.Is; the first failure's
// error joins ErrDesynced with the underlying cause.
var ErrDesynced = errors.New("session desynced")

// ErrCheckpoint reports a compaction wave whose write-ahead-log
// checkpoint failed: the wave itself was applied and the session stays
// consistent (not desynced); only the log kept its pre-rotation length,
// and it still replays to the same state. Test with errors.Is. The
// cause is described in the message but kept out of the chain, so a
// checkpoint over the frame cap never reads as wal.ErrFrameTooLarge —
// the client's payload was not the problem.
var ErrCheckpoint = errors.New("wal checkpoint failed")

// Scheme selects the meta-blocking edge-weighting scheme.
type Scheme = metablocking.Scheme

// Weighting schemes (see internal/metablocking for definitions).
const (
	CBS  = metablocking.CBS
	ECBS = metablocking.ECBS
	JS   = metablocking.JS
	EJS  = metablocking.EJS
	ARCS = metablocking.ARCS
)

// Pruning selects the meta-blocking pruning algorithm.
type Pruning = metablocking.Pruning

// Pruning algorithms (see internal/metablocking for definitions).
const (
	WEP = metablocking.WEP
	CEP = metablocking.CEP
	WNP = metablocking.WNP
	CNP = metablocking.CNP
)

// Clustering selects how confirmed matches become final clusters.
type Clustering = cluster.Algorithm

// Clustering algorithms for Config.Clustering.
const (
	// TransitiveClosure unions every confirmed match (the default and
	// the paper's implicit choice).
	TransitiveClosure = cluster.TransitiveClosure
	// CenterClustering builds star clusters, refusing to chain weak
	// matches — much higher precision on dirty data (see ablation A6).
	CenterClustering = cluster.Center
	// UniqueMappingClustering greedily enforces one partner per other
	// KB, by descending score.
	UniqueMappingClustering = cluster.UniqueMapping
)

// BenefitModel selects what the progressive scheduler maximizes.
type BenefitModel = core.BenefitModel

// Benefit models: the paper's three data-quality benefits plus the
// pair-quantity benefit of prior work.
var (
	Quantity                 BenefitModel = core.Quantity{}
	AttributeCompleteness    BenefitModel = core.AttributeCompleteness{}
	EntityCoverage           BenefitModel = core.EntityCoverage{}
	RelationshipCompleteness BenefitModel = core.RelationshipCompleteness{}
)

// Config tunes every pipeline stage. Zero fields take the documented
// defaults; Defaults() returns the paper-faithful configuration.
type Config struct {
	// Tokenize controls schema-agnostic token extraction.
	Tokenize tokenize.Options
	// PurgeMaxBlockSize caps block size before meta-blocking
	// (0 = automatic; negative = skip purging).
	PurgeMaxBlockSize int
	// FilterRatio keeps each description in this fraction of its
	// smallest blocks (0 = default 0.8; negative = skip filtering;
	// above 1 fails Start).
	FilterRatio float64
	// Scheme is the edge-weighting scheme (default ECBS).
	Scheme Scheme
	// Pruning is the pruning algorithm (default WNP).
	Pruning Pruning
	// Reciprocal requires both endpoints to retain an edge in
	// node-centric pruning.
	Reciprocal bool
	// Match configures the similarity matcher.
	Match match.Options
	// Benefit is the targeted benefit model (nil = attribute
	// completeness).
	Benefit BenefitModel
	// DisableDiscovery turns off neighbor-evidence discovery of
	// comparisons blocking missed.
	DisableDiscovery bool
	// Clustering selects how confirmed matches become the final
	// clusters (default TransitiveClosure; CenterClustering or
	// UniqueMappingClustering trade a little recall for precision).
	Clustering Clustering
	// Workers sets the parallelism of the whole pipeline. The
	// front-end stages — token blocking, block cleaning, graph build,
	// weighting, and pruning — dispatch through one engine
	// (internal/pipeline), and the matching stage (internal/core) uses
	// the same worker count as the width of the value-similarity
	// pre-pass a draining Resume runs before its serial loop: 1 runs
	// everything on the calling goroutine, n > 1 fans tokenization, the
	// graph kernel and the pre-pass out over n workers, and 0 — the
	// default — uses one worker per available CPU (GOMAXPROCS), so
	// Resolve is automatically parallel on multicore hosts. Every
	// setting produces identical results, including a bit-identical
	// progressive trace.
	Workers int
	// TTL, when positive, turns every Session into a sliding window
	// over ingest batches: descriptions loaded before Start belong to
	// batch 0, the i-th Ingest/IngestKB call (or post-Start load) is
	// batch i, and after batch i is folded in, every description whose
	// batch index is at most i−TTL is evicted automatically — exactly
	// as if Session.Evict had named it. TTL counts the batch that
	// first brought a description; extending it in a later batch does
	// not refresh its age, and nothing expires while no new batch
	// arrives — an ingest call that brings no data (an empty batch or
	// document) is not a batch and leaves the window untouched.
	// 0 (the default) disables the window.
	TTL int
	// CompactionThreshold triggers an id-space compaction epoch when
	// the fraction of tombstoned ids in the session's collection
	// reaches it. Ids are never reused within a collection, so a
	// long-lived session with eviction — a TTL sliding window above
	// all — otherwise accretes dead ids that every id-indexed
	// structure (token cache, per-node graph arrays, cluster state)
	// keeps paying for. When an eviction (by hand or by TTL expiry)
	// leaves the density at the threshold, the session re-bases onto a
	// compacted collection holding only the live descriptions under
	// fresh dense ids before the wave's front-end pass: that one pass
	// runs over the compacted collection and the resolution history is
	// replayed with remapped ids, leaving a state equivalent to a
	// session over a corpus that never held the departed descriptions.
	// References (KB + URI) are stable across epochs — only internal
	// ids move.
	//
	// 0 (the default) enables compaction at density ½ when TTL is
	// active and disables it otherwise; negative disables it
	// unconditionally; an explicit value in (0, 1] sets the density.
	CompactionThreshold float64
	// MRRunner must be empty: Start fails with an error naming it
	// otherwise. It selected where the removed MapReduce engine's tasks
	// ran and is kept for the frozen benchmark read, ROADMAP item 1.
	MRRunner string
	// WALFsync selects the fsync policy of a write-ahead-logged
	// pipeline (one constructed with Open): FsyncWave — the default —
	// defers the disk sync to SyncWAL, which the server calls once per
	// commit wave; FsyncAlways syncs inside every logged mutation;
	// FsyncOff never deliberately syncs. Every policy survives a
	// process crash (appends reach the kernel before a mutation is
	// applied); the policy is the power-loss line. Ignored by New —
	// only Open attaches a log.
	WALFsync FsyncPolicy
	// Store selects where description bodies live: "" (the default)
	// keeps everything in RAM; "disk" pages them out to an append-only
	// file under StoreDir, and every read of a body is a checksummed
	// file read and a decode; "disk-temp" is "disk" with a private temp
	// directory removed on Close (no StoreDir to manage — for tests and
	// ephemeral runs). Results are bit-identical across the settings —
	// the store moves bytes, never bits. The store is scratch space:
	// every New or Open starts it empty (recovery rebuilds it through
	// WAL replay), so nothing a previous process wrote is ever read.
	Store string
	// StoreDir is the directory of Store "disk"'s file; required then,
	// ignored otherwise. It may live alongside the WAL directory but
	// must not be the same path.
	StoreDir string
}

// FsyncPolicy selects when the write-ahead log is fsynced; see
// Config.WALFsync.
type FsyncPolicy = wal.Policy

// Fsync policies for Config.WALFsync.
const (
	// FsyncWave (the default) makes one server commit wave one durable
	// unit: the log is fsynced by SyncWAL, not by each mutation.
	FsyncWave = wal.SyncWave
	// FsyncAlways fsyncs the log inside every logged mutation.
	FsyncAlways = wal.SyncAlways
	// FsyncOff never fsyncs; the OS flushes on its own schedule.
	FsyncOff = wal.SyncOff
)

// ParseFsyncPolicy reads a policy name — "always", "wave", or "off" —
// as a flag or config file would spell it.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	p, err := wal.ParsePolicy(s)
	if err != nil {
		return p, fmt.Errorf("minoaner: %w", err)
	}
	return p, nil
}

// Defaults returns the configuration used throughout the paper
// reproduction. It reads no environment.
func Defaults() Config {
	return Config{
		Tokenize:    tokenize.Default(),
		FilterRatio: 0.8,
		Scheme:      ECBS,
		Pruning:     WNP,
		Match:       match.DefaultOptions(),
		Benefit:     AttributeCompleteness,
	}
}

// Ref names one entity description: its source KB and its URI.
//
// The JSON field names of Ref — like those of Match, Cluster, Stats,
// Result, and Description — are part of the wire format served by
// internal/server and are pinned by golden fixtures; changing a tag is
// a breaking protocol change.
type Ref struct {
	KB  string `json:"kb"`
	URI string `json:"uri"`
}

// Match is one confirmed pair, in confirmation order.
type Match struct {
	A Ref `json:"a"`
	B Ref `json:"b"`
	// Score is the combined similarity at confirmation time.
	Score float64 `json:"score"`
	// Discovered is true when blocking never proposed this pair — it
	// was found through neighbor evidence in the update phase.
	Discovered bool `json:"discovered,omitempty"`
	// Rechecked is true when the pair failed an earlier comparison and
	// was re-examined after its neighbors resolved.
	Rechecked bool `json:"rechecked,omitempty"`
}

// Cluster is one resolved real-world entity: all its descriptions.
type Cluster []Ref

// Stats reports per-stage pipeline measurements.
type Stats struct {
	Descriptions    int `json:"descriptions"`
	KBs             int `json:"kbs"`
	BruteForce      int `json:"bruteForce"`      // comparisons without blocking
	Blocks          int `json:"blocks"`          // after cleaning
	BlockCandidates int `json:"blockCandidates"` // distinct pairs after cleaning
	PrunedEdges     int `json:"prunedEdges"`     // comparisons retained by meta-blocking
	Comparisons     int `json:"comparisons"`     // comparisons this session executed; never falls
	DiscoveredCmps  int `json:"discoveredCmps"`  // of those, the ones found by the update phase
	Matches         int `json:"matches"`
}

// Result of a pipeline run.
type Result struct {
	Matches  []Match   `json:"matches"`
	Clusters []Cluster `json:"clusters"`
	Stats    Stats     `json:"stats"`
}

// SameAs serializes the confirmed matches as owl:sameAs N-Triples. The
// output round-trips through the internal/rdf parser: internal/server's
// sameAs endpoint serves the same serialization.
func (r *Result) SameAs() string { return sameAsDoc(r.Matches) }

// sameAsDoc is the one owl:sameAs serializer — Result.SameAs and
// Snapshot.SameAs (the server's N-Triples dump) both go through it, so
// the two surfaces can never drift. It renders each match through the
// internal/rdf term serializer (IRI bracketing and escaping rules live
// there, next to the parser they must round-trip with).
func sameAsDoc(matches []Match) string {
	var sb strings.Builder
	for _, m := range matches {
		t := rdf.NewTriple(rdf.NewIRI(m.A.URI), rdf.NewIRI(rdf.OWLSameAs), rdf.NewIRI(m.B.URI))
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Pipeline accumulates knowledge bases and resolves them.
type Pipeline struct {
	cfg Config
	col *kb.Collection
	// current is the most recent session Start created. Sessions share
	// the pipeline's collection, so streaming ingestion — which
	// mutates it — is restricted to the current session; earlier
	// sessions keep operating on their frozen view.
	current *Session
	// wal, when non-nil (a pipeline constructed with Open), receives
	// every mutation — loads, ingests, evictions, Start — as a framed
	// record before the mutation is applied, so folding the log (see
	// replay) reconstructs the state. Nil on pipelines from New:
	// logging is opt-in.
	wal *wal.Log
	// store, when non-nil (Config.Store "disk" or "disk-temp"), holds
	// the description bodies behind the narrow storage boundary.
	// Attached lazily by ensureStore before the first description
	// lands.
	store store.Store
	// storeTemp is the private store directory a "disk-temp" store
	// minted; Close removes it.
	storeTemp string
	// testPayloadCap overrides the WAL frame budget batch splitting and
	// checkpoints honor; tests use it to exercise the boundary without
	// allocating gigabyte payloads. 0 means the real wal.MaxPayload.
	testPayloadCap int
	// testWrapEngine, when set, wraps the engine of every session the
	// pipeline opens; tests use it to count the front-end passes
	// recovery makes.
	testWrapEngine func(pipeline.Engine) pipeline.Engine
	// testLeg, when set, sees every Resume leg's trace: tests keep the
	// full history the sessions do not.
	testLeg func(*Session, []core.Step)
}

// New returns an empty pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	var zeroTok tokenize.Options
	if cfg.Tokenize == zeroTok {
		cfg.Tokenize = tokenize.Default()
	}
	if cfg.FilterRatio == 0 {
		cfg.FilterRatio = 0.8
	}
	if cfg.Benefit == nil {
		cfg.Benefit = AttributeCompleteness
	}
	cfg.Match.Tokenize = cfg.Tokenize
	return &Pipeline{cfg: cfg, col: kb.NewCollection()}
}

// Open returns a pipeline whose mutations are write-ahead logged under
// dir — and, when dir already holds a log, the recovered pipeline: the
// valid record prefix (a torn or corrupted tail is dropped at the last
// intact frame) is folded into the collection record by record, and
// the recovered session is one front-end pass over the folded
// collection (see replay). The recovered state is exactly what a
// from-scratch pipeline fed the same surviving mutations would hold.
// If the log contains a Start, the recovered session is current
// (Current returns it) and resolution resumes with a Resume call —
// resolution state is derived, recomputed, never logged. Recovery
// requires the same Config the log was written under; TTL expiry and
// compaction epochs fold deterministically from the recorded batches.
//
// After Open every mutation appends its record before applying it;
// Config.WALFsync decides when records additionally reach the disk.
// Close the pipeline when done to flush and sync the log.
func Open(dir string, cfg Config) (*Pipeline, error) { return New(cfg).open(dir) }

// open attaches the log under dir to a fresh pipeline, recovering
// whatever it holds.
func (p *Pipeline) open(dir string) (*Pipeline, error) {
	if err := p.ensureStore(); err != nil {
		return nil, err
	}
	log, recs, err := wal.Open(dir, p.cfg.WALFsync)
	if err != nil {
		return nil, fmt.Errorf("minoaner: %w", err)
	}
	if err := p.replay(recs); err != nil {
		log.Close()
		return nil, err
	}
	// Attach only after replay: replayed mutations must not re-append.
	p.wal = log
	return p, nil
}

// Current returns the pipeline's current session — the one Start (or a
// recovery folding a logged Start) most recently created — or nil
// before any Start. Streaming mutation is restricted to it.
func (p *Pipeline) Current() *Session { return p.current }

// Close releases the pipeline's write-ahead log, flushing and syncing
// it first; on a pipeline from New it is a no-op. The pipeline still
// resolves afterwards, but mutations fail on the closed log.
func (p *Pipeline) Close() error {
	var err error
	if p.wal != nil {
		err = p.wal.Close()
	}
	if p.store != nil {
		if serr := p.store.Close(); err == nil {
			err = serr
		}
	}
	if p.storeTemp != "" {
		if rerr := os.RemoveAll(p.storeTemp); err == nil {
			err = rerr
		}
		p.storeTemp = ""
	}
	return err
}

// ensureStore attaches the configured cold store before the first
// description lands. A disk store always opens empty: its contents are
// derived state the WAL (or the caller's corpus) rebuilds, and a file
// written after the log's last durable record must never survive into
// a recovered session. Idempotent; "" is the all-in-RAM layout.
func (p *Pipeline) ensureStore() error {
	if p.cfg.Store == "" || p.store != nil {
		return nil
	}
	dir := p.cfg.StoreDir
	switch p.cfg.Store {
	case "disk":
		if dir == "" {
			return fmt.Errorf("minoaner: Config.Store %q requires Config.StoreDir", p.cfg.Store)
		}
	case "disk-temp":
		// Like "disk", but the file lives in a fresh private temp
		// directory removed on Close. Sound because the store is derived
		// state — nothing in it outlives the process usefully — and it
		// gives tests and ephemeral runs the paged backend without a
		// directory to manage or collide on.
		var err error
		if dir, err = os.MkdirTemp("", "minoaner-store-"); err != nil {
			return fmt.Errorf("minoaner: temp store dir: %w", err)
		}
		p.storeTemp = dir
	default:
		return fmt.Errorf("minoaner: unknown Config.Store %q (want \"\", \"disk\", or \"disk-temp\")", p.cfg.Store)
	}
	st, err := store.OpenDisk(dir, store.DiskOptions{Reset: true})
	if err != nil {
		if p.storeTemp != "" {
			os.RemoveAll(p.storeTemp)
			p.storeTemp = ""
		}
		return fmt.Errorf("minoaner: open store: %w", err)
	}
	if err := p.col.AttachStore(st, 0); err != nil {
		st.Close()
		return fmt.Errorf("minoaner: attach store: %w", err)
	}
	p.store = st
	return nil
}

// walEvict is the wire payload of an eviction record — the same shape
// the server's /evict endpoint accepts: exactly one of Refs or KB.
type walEvict struct {
	Refs []Ref  `json:"refs,omitempty"`
	KB   string `json:"kb,omitempty"`
}

// walCheckpoint is the wire payload of a checkpoint record: the full
// live corpus in id order, plus — for TTL sessions — each
// description's age in ingest batches (how far behind the clock its
// batch sits), so the sliding window keeps ticking correctly across a
// recovery.
type walCheckpoint struct {
	Descs []Description `json:"descs"`
	Ages  []int         `json:"ages,omitempty"`
}

// walAppend frames one record onto the pipeline's log; a pipeline
// without a log accepts everything silently. Called before the
// mutation is applied — the write-ahead discipline: a crash between
// append and apply recovers to a state that includes the mutation,
// which is indistinguishable from crashing just after the apply.
func (p *Pipeline) walAppend(typ byte, payload any) error {
	if p.wal == nil {
		return nil
	}
	var data []byte
	if payload != nil {
		var err error
		if data, err = json.Marshal(payload); err != nil {
			return fmt.Errorf("minoaner: wal: %w", err)
		}
	}
	if err := p.wal.Append(typ, data); err != nil {
		return fmt.Errorf("minoaner: %w", err)
	}
	return nil
}

// replay recovers a record sequence by folding it, not by re-running
// it. Every record goes through the same fold a live wave runs before
// its front-end pass (Session.fold): arrivals, merges and tombstones
// land in the collection, and once a Start record has opened a
// session, its TTL clock, expiry and compaction epochs advance exactly
// as they did in the original timeline — all of them deterministic in
// the mutation sequence. No record runs a pass. Once the log is
// consumed the recovered session is built once: one front-end pass
// over the folded collection, one matcher, one fresh resolver.
//
// That one pass is the whole session, not an approximation of it: the
// front end is a pure function of the live collection, and the log
// carries no resolution progress, so the session holds no merges
// throughout — and with no merges a wave's Retract equals a fresh
// resolver. The pipeline's log is still detached, so nothing
// re-appends.
func (p *Pipeline) replay(recs []Record) error {
	var s *Session // the session the latest Start or checkpoint opened
	for i, rec := range recs {
		switch rec.Type {
		case TypeCheckpoint:
			if i != 0 || p.col.Len() != 0 {
				return fmt.Errorf("minoaner: wal: checkpoint record %d is not the head of the log", i)
			}
			var chk walCheckpoint
			if err := json.Unmarshal(rec.Payload, &chk); err != nil {
				return fmt.Errorf("minoaner: wal: decode checkpoint: %w", err)
			}
			p.addRaw(chk.Descs)
			var err error
			if s, err = p.newSession(); err != nil {
				return fmt.Errorf("minoaner: wal: restore checkpoint: %w", err)
			}
			if len(chk.Ages) > 0 && p.cfg.TTL > 0 {
				// Re-base the TTL clock at zero with the recorded ages:
				// gens[i] = -age keeps the array non-decreasing (the
				// checkpoint wrote descriptions in id order, oldest
				// first), so the prefix-cursor expiry keeps working.
				if len(chk.Ages) != len(s.gens) {
					return fmt.Errorf("minoaner: wal: checkpoint carries %d ages for %d descriptions", len(chk.Ages), len(s.gens))
				}
				for i, age := range chk.Ages {
					s.gens[i] = -age
				}
			}
		case TypeStart:
			var err error
			if s, err = p.newSession(); err != nil {
				return fmt.Errorf("minoaner: wal: replay start: %w", err)
			}
		case TypeIngest:
			var batch []Description
			if err := json.Unmarshal(rec.Payload, &batch); err != nil {
				return fmt.Errorf("minoaner: wal: decode ingest record %d: %w", i, err)
			}
			if s == nil {
				p.addRaw(batch)
			} else if _, err := s.fold(batch, nil); err != nil {
				return fmt.Errorf("minoaner: wal: replay ingest record %d: %w", i, err)
			}
		case TypeEvict:
			var ev walEvict
			if err := json.Unmarshal(rec.Payload, &ev); err != nil {
				return fmt.Errorf("minoaner: wal: decode evict record %d: %w", i, err)
			}
			if s == nil {
				return fmt.Errorf("minoaner: wal: evict record %d precedes any start", i)
			}
			ids, err := p.evictIDs(ev)
			if err == nil {
				_, err = s.fold(nil, ids)
			}
			if err != nil {
				return fmt.Errorf("minoaner: wal: replay evict record %d: %w", i, err)
			}
		default:
			return fmt.Errorf("minoaner: wal: unknown record type %d at record %d", rec.Type, i)
		}
	}
	if s == nil {
		return nil
	}
	if err := s.build(); err != nil {
		return fmt.Errorf("minoaner: wal: rebuild session: %w", err)
	}
	if err := p.col.ColdErr(); err != nil {
		return fmt.Errorf("minoaner: wal: rebuild session: description store: %w", err)
	}
	p.current = s
	return nil
}

// Record re-exports the WAL record so recovery tooling and tests can
// inspect a log without importing the internal package.
type Record = wal.Record

// WAL record types, re-exported with the log format.
const (
	TypeIngest     = wal.TypeIngest
	TypeEvict      = wal.TypeEvict
	TypeStart      = wal.TypeStart
	TypeCheckpoint = wal.TypeCheckpoint
)

// pipelineOptions maps the public configuration onto the front-end
// engine options — one translation, shared by Start and by the
// compaction epoch's rebuild, so the two can never drift.
func (p *Pipeline) pipelineOptions() pipeline.Options {
	return pipeline.Options{
		Tokenize:          p.cfg.Tokenize,
		PurgeMaxBlockSize: p.cfg.PurgeMaxBlockSize,
		FilterRatio:       p.cfg.FilterRatio,
		Scheme:            p.cfg.Scheme,
		Pruning:           p.cfg.Pruning,
		Reciprocal:        p.cfg.Reciprocal,
	}
}

// compactionThreshold resolves Config.CompactionThreshold to the
// effective tombstone-density trigger: the configured value, defaulting
// to ½ for TTL sessions; 0 means compaction is disabled.
func (p *Pipeline) compactionThreshold() float64 {
	switch {
	case p.cfg.CompactionThreshold < 0:
		return 0
	case p.cfg.CompactionThreshold > 0:
		return p.cfg.CompactionThreshold
	case p.cfg.TTL > 0:
		return 0.5
	}
	return 0
}

// LoadKB reads an N-Triples stream as one knowledge base. Literal
// objects become attributes, resource objects become links, and
// owl:sameAs statements are ignored (they are ground truth, not
// evidence). Loading several streams under one name merges them;
// loading distinct names enables clean–clean resolution across them.
//
// After Start, loading routes through the current session's streaming
// path (the equivalent of Session.IngestKB), so the live session never
// silently desynchronizes from the shared collection; once a newer
// Start supersedes that session, loading refuses instead.
func (p *Pipeline) LoadKB(name string, r io.Reader) error {
	if name == "" {
		return fmt.Errorf("minoaner: KB name must not be empty: %w", ErrBadBatch)
	}
	triples, err := rdf.NewDecoder(r).DecodeAll()
	if err != nil {
		return fmt.Errorf("minoaner: load %s: %w", name, err)
	}
	return p.dispatchIngest(wireDescs(kb.DescriptionsFromTriples(name, triples)))
}

// LoadKBTurtle reads a Turtle stream as one knowledge base. After
// Start it streams into the current session, like LoadKB.
func (p *Pipeline) LoadKBTurtle(name string, r io.Reader) error {
	if name == "" {
		return fmt.Errorf("minoaner: KB name must not be empty: %w", ErrBadBatch)
	}
	triples, err := rdf.NewTurtleDecoder(r).DecodeAll()
	if err != nil {
		return fmt.Errorf("minoaner: load %s: %w", name, err)
	}
	return p.dispatchIngest(wireDescs(kb.DescriptionsFromTriples(name, triples)))
}

// LoadQuads reads an N-Quads stream, mapping each named graph to its
// own knowledge base — the layout of Web-crawl corpora (BTC), where
// the graph label records the publishing dataset. Statements in the
// default graph land in defaultKB. After Start it streams into the
// current session, like LoadKB.
func (p *Pipeline) LoadQuads(defaultKB string, r io.Reader) error {
	if defaultKB == "" {
		return fmt.Errorf("minoaner: default KB name must not be empty: %w", ErrBadBatch)
	}
	quads, err := rdf.NewQuadDecoder(r).DecodeAll()
	if err != nil {
		return fmt.Errorf("minoaner: load quads: %w", err)
	}
	return p.dispatchIngest(wireDescs(kb.DescriptionsFromQuads(defaultKB, quads)))
}

// LoadKBFile reads an RDF file as one knowledge base. Files ending in
// .ttl or .turtle parse as Turtle, everything else as N-Triples.
func (p *Pipeline) LoadKBFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("minoaner: %w", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle") {
		return p.LoadKBTurtle(name, f)
	}
	return p.LoadKB(name, f)
}

// AddDescription inserts one description directly (for programmatic
// construction without RDF). Attribute values carry token evidence;
// links name other descriptions' URIs in the same KB. After Start it
// streams into the current session, like Add.
func (p *Pipeline) AddDescription(kbName, uri string, attrs map[string]string, links []string) error {
	if kbName == "" || uri == "" {
		return fmt.Errorf("minoaner: KB name and URI must not be empty: %w", ErrBadBatch)
	}
	d := Description{URI: uri, KB: kbName, Links: links}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.Attrs = append(d.Attrs, kb.Attribute{Predicate: k, Value: attrs[k]})
	}
	return p.dispatchIngest([]Description{d})
}

// Add inserts descriptions directly, preserving attribute order — the
// pre-Start counterpart of Session.Ingest. Adding a KB+URI that
// already exists extends the existing description. After Start the
// batch streams into the current session exactly as Session.Ingest
// would take it, so the live session stays in sync; once a newer Start
// supersedes that session, Add refuses instead.
func (p *Pipeline) Add(batch []Description) error {
	if err := validateBatch(batch); err != nil {
		return err
	}
	return p.dispatchIngest(batch)
}

// dispatchIngest routes a validated wire batch to wherever mutations
// currently go — the live session's streaming path after Start, the
// shared collection before it — appending the batch to the write-ahead
// log first in either case. Every load and add funnels through here
// (parse first, then log, then apply), so the log's ingest records are
// exactly the batches the collection absorbed, replayable without
// re-parsing any RDF.
func (p *Pipeline) dispatchIngest(batch []Description) error {
	if err := p.ensureStore(); err != nil {
		return err
	}
	if s := p.current; s != nil {
		return s.ingestWire(batch)
	}
	if len(batch) == 0 {
		return nil
	}
	// One WAL frame caps at wal.MaxPayload bytes; a larger batch splits
	// into halves recursively, each logged and applied separately —
	// replay then re-applies the same sub-batches in the same order.
	chunks, err := splitBatch(batch, p.payloadCap())
	if err != nil {
		return err
	}
	for _, chunk := range chunks {
		if err := p.walAppend(TypeIngest, chunk); err != nil {
			return err
		}
		p.addRaw(chunk)
	}
	if err := p.col.ColdErr(); err != nil {
		return fmt.Errorf("minoaner: cold store: %w", err)
	}
	return nil
}

// payloadCap is the WAL frame budget a single ingest record must fit;
// overridden by tests to exercise the splitting without gigabyte
// batches.
func (p *Pipeline) payloadCap() int {
	if p.testPayloadCap > 0 {
		return p.testPayloadCap
	}
	return wal.MaxPayload()
}

// splitBatch cuts a wire batch into chunks whose JSON encoding fits the
// frame cap, halving recursively; order is preserved. A single
// description too large for any frame is refused with the typed
// wal.ErrFrameTooLarge before anything is logged or applied — the log
// layer holds the same guard as defense in depth, where an unchecked
// length would otherwise be narrowed to the frame's 32-bit field and
// corrupt the log.
func splitBatch(batch []Description, cap int) ([][]Description, error) {
	if len(batch) == 1 {
		if data, err := json.Marshal(batch); err == nil && len(data) > cap {
			return nil, fmt.Errorf("minoaner: description %s %s encodes to %d bytes over the %d-byte frame cap: %w",
				batch[0].KB, batch[0].URI, len(data), cap, wal.ErrFrameTooLarge)
		}
		return [][]Description{batch}, nil
	}
	if data, err := json.Marshal(batch); err == nil && len(data) <= cap {
		return [][]Description{batch}, nil
	}
	mid := len(batch) / 2
	head, err := splitBatch(batch[:mid], cap)
	if err != nil {
		return nil, err
	}
	tail, err := splitBatch(batch[mid:], cap)
	if err != nil {
		return nil, err
	}
	return append(head, tail...), nil
}

// wireDescs converts parsed descriptions to their wire form — the
// JSON-stable shape the server streams and the write-ahead log frames.
func wireDescs(descs []*kb.Description) []Description {
	out := make([]Description, len(descs))
	for i, d := range descs {
		out[i] = Description{KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links}
	}
	return out
}

func validateBatch(batch []Description) error {
	for _, d := range batch {
		if d.KB == "" || d.URI == "" {
			return fmt.Errorf("minoaner: KB name and URI must not be empty: %w", ErrBadBatch)
		}
	}
	return nil
}

// addRaw inserts a validated batch into the shared collection without
// touching any session — callers route session synchronization.
func (p *Pipeline) addRaw(batch []Description) {
	for _, d := range batch {
		p.col.Add(&kb.Description{
			URI: d.URI, KB: d.KB, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
		})
	}
}

// NumDescriptions returns how many live descriptions are loaded.
func (p *Pipeline) NumDescriptions() int { return p.col.NumAlive() }

// Resolve runs the full pipeline with an unlimited comparison budget.
func (p *Pipeline) Resolve() (*Result, error) { return p.ResolveBudget(0) }

// ResolveBudget runs the pipeline, executing at most budget
// comparisons (0 = unlimited) — the paper's pay-as-you-go mode: the
// scheduler spends the budget on the most beneficial comparisons
// first.
func (p *Pipeline) ResolveBudget(budget int) (*Result, error) {
	return p.ResolveContext(context.Background(), budget)
}

// ResolveContext is ResolveBudget with cancellation: Start runs to
// completion, then the matching loop honors ctx between comparisons via
// Session.ResumeContext. On cancellation it returns the partial
// cumulative result together with ctx.Err(); the session it started
// remains the pipeline's current one, so a later Start or streaming
// call continues normally.
func (p *Pipeline) ResolveContext(ctx context.Context, budget int) (*Result, error) {
	s, err := p.Start()
	if err != nil {
		return nil, err
	}
	return s.ResumeContext(ctx, budget)
}

// Session is a resumable pay-as-you-go resolution: blocking and
// meta-blocking run once at Start, then each Resume spends a further
// comparison budget and returns the cumulative result so far. Matches
// found in earlier legs stay resolved; the update phase keeps feeding
// evidence across legs.
//
// A Session is also the unit of streaming resolution: Ingest and
// IngestKB fold new descriptions into the live session — the front-end
// is re-derived over the grown corpus — with the guarantee that
// ingesting a corpus in any number of batches and then resolving
// produces exactly the state a from-scratch session over the whole
// corpus would. Evict and EvictKB are the deletion mirror:
// descriptions leave the live session with the guarantee that the
// surviving state is exactly that of a from-scratch session over a
// corpus that never held them. Config.TTL drives Evict automatically
// as a sliding window over ingest batches. Across waves a session
// carries only its merges: every wave rebuilds the resolver as a fresh
// one with the live matched steps replayed (core.Resolver.Retract).
type Session struct {
	p *Pipeline
	// col is the collection the session's ids index: the pipeline's at
	// Start, replaced only by the session's own compaction epochs. A
	// superseded session keeps reading it after the current session
	// re-bases the pipeline onto a compacted collection.
	col      *kb.Collection
	eng      pipeline.Engine
	fstate   *pipeline.State
	resolver *core.Resolver
	matcher  *match.Matcher
	base     Stats
	// merges holds the matched steps over live ids in execution order;
	// failed ones are only counted, with the discovered ones, in
	// comparisons and discovered, which never fall.
	merges      []core.Step
	comparisons int
	discovered  int
	// gens records, per description id, the index of the ingest batch
	// that first brought it (Start's corpus is batch 0) — the age TTL
	// expires on. Ids are stamped in batch order, so the array is
	// non-decreasing and the expired set is always a prefix; expired is
	// the cursor behind which everything has been evicted. Only
	// maintained when Config.TTL > 0.
	gens    []int
	expired int
	// curGen counts ingest batches, TTL or not.
	curGen int
	// compactions counts the id-space compaction epochs this session
	// has been through (see Config.CompactionThreshold).
	compactions int
	// tim accumulates the session-level wall-clock counters (front end,
	// streaming maintenance, resolve legs); the matching-stage split
	// lives in the resolver and is merged in by Timings().
	tim Timings
	// desynced, once set, is the sticky poison of a failed mid-pass
	// synchronization (see syncFront): every later mutation and Resume
	// returns it. It wraps ErrDesynced and the first cause.
	desynced error
}

// Timings reports cumulative wall-clock time per pipeline stage of one
// session, in nanoseconds on the wire (the JSON field names end in Ns).
// FrontEnd is Start's preparation pass (blocking→pruning plus matcher
// and queue construction) — for a session Open recovered, the one pass
// over the folded log, which leaves Ingest and Evict at zero; Ingest
// and Evict cover streaming waves (the fold, the front-end pass over
// the changed corpus, matcher and resolver rebuild — a wave that
// carried any departure counts as Evict);
// Resolve is the matching loop end to end, and
// Schedule/Match/Update partition it (see internal/core.Timings — the
// parallel value-similarity pre-pass of a draining Resume counts as
// Match).
type Timings struct {
	FrontEnd time.Duration `json:"frontendNs"`
	Ingest   time.Duration `json:"ingestNs"`
	Evict    time.Duration `json:"evictNs"`
	Resolve  time.Duration `json:"resolveNs"`
	Schedule time.Duration `json:"scheduleNs"`
	Match    time.Duration `json:"matchNs"`
	Update   time.Duration `json:"updateNs"`
}

// Timings returns the session's cumulative per-stage timing counters.
// Like every Session method, it must not race with a concurrent
// mutation — the server reads it from its single writer goroutine and
// snapshots the value.
func (s *Session) Timings() Timings {
	t := s.tim
	ct := s.resolver.Timings()
	t.Schedule, t.Match, t.Update = ct.Schedule, ct.Match, ct.Update
	return t
}

// Start freezes the loaded KBs and prepares the comparison queue.
//
// Stages 1–2 (blocking, cleaning, meta-blocking) run through the
// engine layer: pipeline.Select resolves Config.Workers to the
// engine's width, and every stage is dispatched through it. The
// matching stage (run by Resume) gets the same resolved worker count:
// with more than one worker, a draining Resume first computes the
// queued pairs' value similarities on that many goroutines, then runs
// the exact sequential schedule over them. The results are
// bit-identical whatever the worker count.
func (p *Pipeline) Start() (*Session, error) {
	if p.col.NumAlive() == 0 {
		return nil, fmt.Errorf("minoaner: no descriptions loaded")
	}
	s, err := p.newSession()
	if err != nil {
		return nil, err
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	p.current = s
	// The log's Start marker: records before it replay as pre-Start
	// loads, records after it as streaming mutations of the session it
	// (re)creates. Appended only once Start has fully succeeded, so a
	// replayed Start succeeds too.
	if err := p.walAppend(TypeStart, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// newSession opens a session over the pipeline's collection with fresh
// bookkeeping — everything loaded so far is batch 0, no compaction
// epoch yet — and no front end: build makes its pass. Between the two,
// recovery folds the logged mutations into it (see replay).
func (p *Pipeline) newSession() (*Session, error) {
	if p.cfg.FilterRatio > 1 {
		return nil, fmt.Errorf("minoaner: Config.FilterRatio %v is above 1 (want a fraction in (0, 1], or negative to skip filtering)", p.cfg.FilterRatio)
	}
	if p.cfg.MRRunner != "" {
		return nil, fmt.Errorf("minoaner: Config.MRRunner %q is not supported (the MapReduce engine was removed; leave it empty)", p.cfg.MRRunner)
	}
	eng := pipeline.Select(p.cfg.Workers, false)
	if p.testWrapEngine != nil {
		eng = p.testWrapEngine(eng)
	}
	s := &Session{p: p, col: p.col, eng: eng}
	if p.cfg.TTL > 0 {
		s.gens = make([]int, p.col.Len())
	}
	return s, nil
}

// build runs the session's front-end pass over the pipeline's
// collection and builds the matcher and a fresh resolver over its
// output — Start's preparation, and the one pass a recovery makes once
// the log is folded. Stages 3–5 are deferred to Resume.
func (s *Session) build() error {
	p := s.p
	t0 := time.Now()
	fstate, err := pipeline.Start(s.eng, s.col, p.pipelineOptions())
	if err != nil {
		return fmt.Errorf("minoaner: %w", err)
	}
	s.fstate = fstate
	// Nothing after the pass reads the blocking graph: drop its arrays
	// before the matcher and resolver allocate. refreshStats and Gauges
	// read the cached edge count and footprint.
	fstate.Front.Graph.Release()
	s.matcher = match.NewMatcher(s.col, p.cfg.Match)
	s.resolver = core.NewResolver(s.matcher, fstate.Front.Edges, core.Config{
		Benefit:          p.cfg.Benefit,
		DisableDiscovery: p.cfg.DisableDiscovery,
		Workers:          parmeta.Workers(p.cfg.Workers),
	})
	s.tim.FrontEnd = time.Since(t0)
	s.refreshStats()
	return nil
}

// refreshStats recomputes the front-end statistics from the current
// state — called at Start and after every streaming wave.
// BlockCandidates is read off the blocking graph (its edges are exactly
// the distinct comparable pairs of the cleaned blocks), not
// re-enumerated.
func (s *Session) refreshStats() {
	fe := s.fstate.Front
	s.base = Stats{
		Descriptions:    s.col.NumAlive(),
		KBs:             s.col.NumLiveKBs(),
		BruteForce:      bruteForce(s.col),
		Blocks:          fe.Blocks.NumBlocks(),
		BlockCandidates: fe.Graph.NumEdges(),
		PrunedEdges:     len(fe.Edges),
	}
}

// Resume executes up to budget further comparisons (0 = run to
// completion) and returns the cumulative result of the session.
func (s *Session) Resume(budget int) (*Result, error) {
	return s.ResumeContext(context.Background(), budget)
}

// ResumeContext is Resume with cancellation: the matching loop checks
// ctx between comparisons and stops early when it is done. Every
// comparison executed before the cancellation is fully committed and
// stays folded into the session — a later Resume continues exactly
// where the cancelled one stopped, with the usual leg-concatenation
// guarantee. On cancellation the cumulative result so far is returned
// together with ctx.Err(), so a caller (the server's writer goroutine)
// can give up on a wedged request without losing or corrupting work.
func (s *Session) ResumeContext(ctx context.Context, budget int) (*Result, error) {
	if s.desynced != nil {
		return nil, s.desynced // a poisoned session serves no reads
	}
	t0 := time.Now()
	res := s.resolver.RunBudgetContext(ctx, budget)
	s.tim.Resolve += time.Since(t0)
	if s.p.testLeg != nil {
		s.p.testLeg(s, res.Trace)
	}
	s.comparisons += res.Comparisons
	s.discovered += res.Discovered
	for _, step := range res.Trace {
		if step.Matched {
			s.merges = append(s.merges, step)
		}
	}
	out, _ := s.buildResult()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// buildResult assembles the cumulative Result from the session's
// merges and counters without spending any budget. It also returns the
// member ids of each cluster, aligned with Result.Clusters — Snapshot
// builds its lookup index from them.
func (s *Session) buildResult() (*Result, [][]int) {
	p := s.p
	out := &Result{Stats: s.base}
	out.Stats.Comparisons = s.comparisons
	out.Stats.DiscoveredCmps = s.discovered
	out.Stats.Matches = len(s.merges)
	for _, step := range s.merges {
		out.Matches = append(out.Matches, Match{
			A:          s.ref(step.A),
			B:          s.ref(step.B),
			Score:      step.Score,
			Discovered: step.Discovered,
			Rechecked:  step.Recheck,
		})
	}
	final := cluster.Cluster(p.cfg.Clustering, cluster.FromSteps(s.merges), s.col, s.col.Len())
	members := final.Resolved()
	for _, ids := range members {
		cl := make(Cluster, len(ids))
		for i, id := range ids {
			cl[i] = s.ref(id)
		}
		out.Clusters = append(out.Clusters, cl)
	}
	return out, members
}

// Pending returns an upper bound on the comparisons still queued.
func (s *Session) Pending() int { return s.resolver.Pending() }

// Snapshot is an immutable point-in-time view of a Session's
// resolution state: the cumulative Result, a cluster index for URI
// lookups, the pending count, and the timing counters — everything a
// read path needs, detached from the live session. Building one costs
// a pass over the merges and the live descriptions; reading one costs
// no locks, no session access, and never observes a later mutation.
// internal/server swaps a Snapshot behind an atomic pointer after each
// commit wave, so any number of concurrent readers share it safely.
type Snapshot struct {
	res     *Result
	pending int
	tim     Timings
	gauges  Gauges
	// index maps every live description to the index of its cluster in
	// res.Clusters, or -1 when it resolved alone (singleton clusters are
	// not enumerated in Result.Clusters).
	index map[Ref]int
	// byURI lists the live refs carrying each URI, KB-sorted — the
	// kb-less form of the resolve lookup. A URI can appear in several
	// KBs (clean–clean corpora disagree exactly there).
	byURI map[string][]Ref
}

// Snapshot captures the session's current state. Like every Session
// method it must not race with a concurrent mutation; the returned
// value, once built, is safe to share among any number of goroutines.
func (s *Session) Snapshot() *Snapshot {
	res, members := s.buildResult()
	sn := &Snapshot{
		res:     res,
		pending: s.resolver.Pending(),
		tim:     s.Timings(),
		gauges:  s.Gauges(),
		index:   make(map[Ref]int, s.col.NumAlive()),
		byURI:   make(map[string][]Ref),
	}
	for ci, ids := range members {
		for _, id := range ids {
			sn.index[s.ref(id)] = ci
		}
	}
	for id := 0; id < s.col.Len(); id++ {
		if !s.col.Alive(id) {
			continue
		}
		r := s.ref(id)
		if _, ok := sn.index[r]; !ok {
			sn.index[r] = -1
		}
		sn.byURI[r.URI] = append(sn.byURI[r.URI], r)
	}
	for _, refs := range sn.byURI {
		sort.Slice(refs, func(i, j int) bool { return refs[i].KB < refs[j].KB })
	}
	return sn
}

// Result returns the snapshot's cumulative result. Callers must treat
// it — matches, clusters, stats — as read-only: the value is shared by
// every reader of the snapshot.
func (sn *Snapshot) Result() *Result { return sn.res }

// Stats returns the snapshot's pipeline statistics.
func (sn *Snapshot) Stats() Stats { return sn.res.Stats }

// Pending returns the upper bound on queued comparisons at capture
// time.
func (sn *Snapshot) Pending() int { return sn.pending }

// Timings returns the per-stage timing counters at capture time.
func (sn *Snapshot) Timings() Timings { return sn.tim }

// Gauges returns the session's memory gauges at capture time.
func (sn *Snapshot) Gauges() Gauges { return sn.gauges }

// SameAs serializes the snapshot's confirmed matches as owl:sameAs
// N-Triples — the same serializer Result.SameAs uses.
func (sn *Snapshot) SameAs() string { return sameAsDoc(sn.res.Matches) }

// Cluster returns the cluster holding the (kb, uri) description. A
// live description that matched nothing resolves to a singleton
// cluster of itself; an unknown or evicted reference reports false.
func (sn *Snapshot) Cluster(kbName, uri string) (Cluster, bool) {
	ci, ok := sn.index[Ref{KB: kbName, URI: uri}]
	if !ok {
		return nil, false
	}
	if ci < 0 {
		return Cluster{{KB: kbName, URI: uri}}, true
	}
	return sn.res.Clusters[ci], true
}

// Refs returns every live description carrying the URI, sorted by KB
// name — the lookup behind a kb-less resolve query. The returned slice
// is shared; callers must not mutate it.
func (sn *Snapshot) Refs(uri string) []Ref { return sn.byURI[uri] }

// Attribute is one predicate–value pair of a streamed Description.
type Attribute = kb.Attribute

// Description is one entity description to stream into a live Session
// with Ingest. Attrs carry token evidence; Links name other
// descriptions' URIs in the same KB. Ingesting a KB+URI that already
// exists extends the existing description.
type Description struct {
	// KB names the source knowledge base (new names open new KBs).
	KB string `json:"kb"`
	// URI identifies the description within its KB.
	URI string `json:"uri"`
	// Types lists rdf:type objects.
	Types []string `json:"types,omitempty"`
	// Attrs lists the literal-valued predicates.
	Attrs []Attribute `json:"attrs,omitempty"`
	// Links lists URIs of linked descriptions.
	Links []string `json:"links,omitempty"`
}

// Ingest streams a batch of new descriptions into the live session.
//
// The front-end is re-derived over the grown corpus — only the batch is
// tokenized anew; blocking, cleaning, the blocking graph and pruning
// run again in full, which on every measured workload costs less than
// maintaining them did — and the resolver is rebuilt with the
// session's merges replayed, so new comparisons interleave with open
// ones in the benefit order a from-scratch session would schedule.
//
// Equivalence guarantee: splitting a corpus into any number of Ingest
// batches and then resolving yields exactly the from-scratch result —
// the same Result.Trace bit for bit, for any worker count and any
// budget. Ingesting after comparisons have already been spent is
// also supported, with monotonic semantics: confirmed matches stay
// resolved, a failed pair still retained is compared again as a fresh
// pair, and new evidence interleaves by benefit from then on.
//
// Ingestion requires the Session to be its Pipeline's current (most
// recent) one: sessions share the pipeline's collection, so mutating
// it under a newer session would silently desynchronize that
// session's state. A superseded session keeps resolving its frozen
// view; only Ingest/IngestKB refuse.
func (s *Session) Ingest(batch []Description) error {
	if err := validateBatch(batch); err != nil {
		return err
	}
	return s.ingestWire(batch)
}

// ingestable refuses streaming — ingestion and eviction alike — for
// any session but the pipeline's current (most recent) one, before
// anything mutates the shared collection. Sessions share that
// collection, and its merge and tombstone tracking is single-consumer:
// an older session mutating would silently desynchronize the newer
// ones. The current session always may; superseded sessions keep
// resolving their frozen view.
func (s *Session) ingestable() error {
	if s.p.current != s {
		return fmt.Errorf("minoaner: streaming requires the pipeline's current session (a newer Start superseded this one): %w", ErrSessionClosed)
	}
	return nil
}

// IngestKB streams an N-Triples document into the live session as
// knowledge base name — LoadKB's streaming counterpart. Statements
// about subjects the session already knows extend their descriptions.
func (s *Session) IngestKB(name string, r io.Reader) error {
	if name == "" {
		return fmt.Errorf("minoaner: KB name must not be empty: %w", ErrBadBatch)
	}
	triples, err := rdf.NewDecoder(r).DecodeAll()
	if err != nil {
		return fmt.Errorf("minoaner: load %s: %w", name, err)
	}
	return s.ingestWire(wireDescs(kb.DescriptionsFromTriples(name, triples)))
}

// Evict removes descriptions from the live session. Every reference
// must name a description the session currently holds; otherwise —
// never loaded, already evicted, a typo — nothing is evicted and the
// error wraps ErrUnknownDescription. Duplicate references within one
// call collapse to one eviction.
//
// The front-end is re-derived over the surviving corpus (the same pass
// an ingest runs), the matcher re-learns its global IDF weights over
// the survivors (linear work), and the resolver is rebuilt as after an
// ingest: matches touching evicted descriptions leave the merges,
// clusters containing them split, and matches among survivors stay
// resolved.
//
// Equivalence guarantee, mirroring Ingest's: for any interleaving of
// Ingest and Evict calls before comparisons are spent, a subsequent
// Resume produces exactly what a from-scratch session over the
// surviving corpus would — the same trace bit for bit (modulo the
// densely re-assigned ids a fresh load implies), for any worker count
// and any budget. Evicting after comparisons have been spent keeps
// monotone semantics: surviving matches stay resolved, the budget
// spent stays counted, and a surviving failed pair still retained is
// compared again as a fresh pair.
//
// Like Ingest, Evict requires the Session to be its Pipeline's current
// one.
func (s *Session) Evict(refs []Ref) error {
	if err := s.ingestable(); err != nil {
		return err
	}
	if s.desynced != nil {
		return s.desynced
	}
	if len(refs) == 0 {
		return nil
	}
	return s.evict(walEvict{Refs: refs})
}

// EvictKB removes every description of the named knowledge base from
// the live session — the wholesale form of Evict for a stale dump or a
// retracted source. A name no description ever carried is an error
// wrapping ErrUnknownKB; a KB already evicted down to empty is a clean
// no-op.
func (s *Session) EvictKB(name string) error {
	if err := s.ingestable(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("minoaner: KB name must not be empty: %w", ErrBadBatch)
	}
	if s.desynced != nil {
		return s.desynced
	}
	return s.evict(walEvict{KB: name})
}

// evictIDs resolves an eviction — the payload a live call logs and a
// replayed record carries — to the live ids it tombstones. Every ref
// must name a live description (else ErrUnknownDescription, and
// nothing is evicted); a KB name must have carried descriptions at
// some point (else ErrUnknownKB) and yields its live ids, possibly
// none.
func (p *Pipeline) evictIDs(ev walEvict) ([]int, error) {
	if ev.KB != "" {
		if !p.col.HasKB(ev.KB) {
			return nil, fmt.Errorf("minoaner: evict KB %q: %w", ev.KB, ErrUnknownKB)
		}
		return p.col.LiveIDsOfKB(ev.KB), nil
	}
	ids := make([]int, 0, len(ev.Refs))
	for _, r := range ev.Refs {
		id, ok := p.col.IDOf(r.KB, r.URI)
		if !ok {
			return nil, fmt.Errorf("minoaner: evict %s/%s: %w", r.KB, r.URI, ErrUnknownDescription)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// evict runs one streaming eviction: the ids are resolved against the
// live corpus, the record is appended to the write-ahead log, and the
// wave folds the tombstones in and makes its pass. An eviction that
// names nothing live — a KB already evicted down to empty — is not
// logged.
func (s *Session) evict(ev walEvict) error {
	ids, err := s.p.evictIDs(ev)
	if err != nil || len(ids) == 0 {
		return err
	}
	// Every ref resolved against the live corpus, so the record will
	// replay cleanly; append it before the first tombstone lands.
	if err := s.p.walAppend(TypeEvict, ev); err != nil {
		return err
	}
	return s.wave(nil, ids)
}

// ingestWire runs one streaming ingest of a parsed wire batch: the
// batch is appended to the write-ahead log, then the wave folds it in —
// the batch counter advances (the TTL clock) and anything that slid
// out of the TTL window expires — and makes its pass. An empty batch —
// an empty document — is not logged and does not advance the clock:
// only arriving data slides the TTL window. Recovery folds each logged
// batch the same way, without the pass.
func (s *Session) ingestWire(batch []Description) error {
	if err := s.ingestable(); err != nil {
		return err
	}
	if s.desynced != nil {
		return s.desynced
	}
	if len(batch) == 0 {
		return nil
	}
	chunks, err := splitBatch(batch, s.p.payloadCap())
	if err != nil {
		return err // refused whole before anything was logged or applied
	}
	if len(chunks) > 1 {
		// The batch cannot be logged as one frame: split it and run each
		// chunk as its own logged ingest — append, apply, sync — so the
		// log records exactly what happened and its replay (which sees
		// one record per chunk) folds the identical batches, TTL
		// generation stamping included. An oversized batch therefore
		// counts as several batches against a TTL window; the
		// alternative — one wider-than-the-log batch — could never be
		// recovered faithfully.
		for _, chunk := range chunks {
			if err := s.ingestWire(chunk); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.p.walAppend(TypeIngest, batch); err != nil {
		return err
	}
	return s.wave(batch, nil)
}

// delta is what folding one mutation changed: descriptions arrived
// (new ids or merges into existing ones), descriptions departed (by
// hand or by TTL expiry), and whether a compaction epoch re-based the
// collection.
type delta struct{ arrived, departed, compacted bool }

// wave runs one logged mutation on the live session: fold it in, then
// make the wave's one front-end pass.
func (s *Session) wave(batch []Description, gone []int) error {
	t0 := time.Now()
	d, err := s.fold(batch, gone)
	if err != nil {
		return s.poison(err)
	}
	return s.syncFront(d, t0)
}

// fold applies one mutation — a batch of arrivals or a set of ids to
// tombstone — to the collection and the session's bookkeeping: it is
// everything a wave does before its front-end pass, shared by the live
// wave and by recovery, which folds every logged record this way and
// makes one pass at the end (see Pipeline.replay). The TTL clock
// advances when the batch brought data, whatever slid out of the window
// expires, and a wave that tombstoned anything drops the departed
// matches from the merges and opens a compaction epoch when the tombstone
// density crossed the threshold (see maybeCompact).
//
// Arrivals are judged by the input: every description of a non-empty
// batch either opens an id or merges into one, and no empty batch is
// ever folded (ingestWire returns before logging one, so replay never
// sees one). Departures are judged by the tombstone count, since
// evicting a dead id is a no-op.
func (s *Session) fold(batch []Description, gone []int) (delta, error) {
	col := s.col
	beforeDead := col.Tombstones()
	s.p.addRaw(batch)
	for _, id := range gone {
		col.Evict(id)
	}
	d := delta{arrived: len(batch) > 0}
	if d.arrived {
		s.curGen++
	}
	s.expireTTL()
	if col.Tombstones() > beforeDead {
		d.departed = true
		s.merges = slices.DeleteFunc(s.merges, func(st core.Step) bool {
			return !col.Alive(st.A) || !col.Alive(st.B)
		})
		var err error
		if d.compacted, err = s.maybeCompact(); err != nil {
			return d, err
		}
	}
	return d, nil
}

// syncFront brings the live session up to date with a folded wave in
// one front-end pass: the engine re-derives the front-end over the live
// collection (see pipeline.Engine.Ingest) — over the compacted one when
// the fold opened an epoch. The engine keeps no record of what
// changed, so skipping a fold that neither added nor removed anything
// is this function's job. The matcher is rebuilt whenever anything
// changed (IDF weights are global — linear work), and the resolver by
// one rule, Retract over the live merges; a departure only picks the
// engine method and the Timings counter the wave is charged to.
//
// A failure mid-pass — the engine refused the front, or swapped it in
// but the matcher and resolver never caught up, or the fold's
// compaction died — leaves the collection ahead of what the session
// serves, with the mutation already acknowledged to the log. Rather
// than serve the desynchronized state the session poisons itself (see
// ErrDesynced): the first such error is returned, remembered, and every
// later mutation or Resume returns it again. Recovery is a restart —
// with a write-ahead log, Open folds every acknowledged mutation into
// a fresh session.
func (s *Session) syncFront(d delta, t0 time.Time) error {
	if !d.arrived && !d.departed {
		return nil // nothing new arrived or departed
	}
	if d.compacted {
		s.fstate.Rebase(s.col)
	}
	pass, kind, spent := s.eng.Ingest, "ingest", &s.tim.Ingest
	if d.departed {
		pass, kind, spent = s.eng.Evict, "evict", &s.tim.Evict
	}
	if err := pass(s.fstate); err != nil {
		return s.poison(fmt.Errorf("minoaner: %s: %w", kind, err))
	}
	if err := s.col.ColdErr(); err != nil {
		// A description failed to page in mid-pass; the tokenizer saw
		// a stub, so the committed front may be wrong. Poison rather
		// than serve it.
		return s.poison(fmt.Errorf("minoaner: %s: description store: %w", kind, err))
	}
	// As in build: the graph's arrays go before the matcher is rebuilt.
	s.fstate.Front.Graph.Release()
	s.matcher = match.NewMatcher(s.col, s.p.cfg.Match)
	s.resolver.Retract(s.matcher, s.fstate.Front.Edges, s.merges)
	*spent += time.Since(t0)
	if err := s.col.ColdErr(); err != nil {
		// The matcher rebuild and the resolver replay page descriptions
		// too; a failure there desyncs scores the same way.
		return s.poison(fmt.Errorf("minoaner: description store: %w", err))
	}
	s.refreshStats()
	if d.compacted {
		// A compaction epoch bounds the log: rotate it down to one
		// checkpoint of the live corpus. Failure here does NOT poison —
		// the in-memory state is fully consistent and the pre-rotation
		// log still replays to it; the caller just learns, through
		// ErrCheckpoint, that the log kept its old length.
		return s.walCheckpoint()
	}
	return nil
}

// poison marks the session desynchronized, remembering the first cause;
// see syncFront. The sticky error wraps ErrDesynced (test with
// errors.Is) and the original failure.
func (s *Session) poison(cause error) error {
	if s.desynced == nil {
		s.desynced = errors.Join(ErrDesynced, cause)
	}
	return s.desynced
}

// Compactions reports how many id-space compaction epochs the session
// has been through. Like every Session method it must not race with a
// concurrent mutation.
func (s *Session) Compactions() int { return s.compactions }

// Gauges reports the memory-relevant size gauges of a session's
// front-end state — the numbers an operator watches to see whether a
// long-lived streaming session is holding its footprint: the blocking
// graph (edges and approximate bytes), the tombstone count the next
// compaction epoch will reclaim, and the epochs already passed. Exposed
// on the server's /status endpoint via Snapshot.
type Gauges struct {
	GraphEdges  int `json:"graphEdges"`
	GraphBytes  int `json:"graphBytes"`
	Tombstones  int `json:"tombstones"`
	Compactions int `json:"compactions"`
	// Write-ahead-log gauges, zero (and omitted from JSON) without a
	// log: current log size, records in the current file (a fresh
	// checkpoint resets this to 1 — the records accumulated since the
	// last rotation), rotations performed, and the wall-clock of the
	// last fsync (0 under FsyncOff: nothing has been made durable).
	WALBytes       int64 `json:"walBytes,omitempty"`
	WALRecords     int64 `json:"walRecords,omitempty"`
	WALCheckpoints int64 `json:"walCheckpoints,omitempty"`
	WALLastSyncNs  int64 `json:"walLastSyncNs,omitempty"`
	// Cold-store gauges, zero (and omitted from JSON) without a store:
	// the store file's bytes (dead records included until the next
	// compaction epoch), the locator bytes of that resident in RAM, and
	// live keys.
	StoreBytes         int64 `json:"storeBytes,omitempty"`
	StoreResidentBytes int64 `json:"storeResidentBytes,omitempty"`
	StoreKeys          int64 `json:"storeKeys,omitempty"`
	// StoreCacheHits and StoreCacheMisses are always zero: there is no
	// decoded-description cache. They are kept for the frozen benchmark
	// read, ROADMAP item 1.
	StoreCacheHits   int64 `json:"storeCacheHits,omitempty"`
	StoreCacheMisses int64 `json:"storeCacheMisses,omitempty"`
}

// Gauges returns the session's current memory gauges. Like every
// Session method it must not race with a concurrent mutation — the
// server captures it into each Snapshot from its writer goroutine.
func (s *Session) Gauges() Gauges {
	g := Gauges{
		GraphEdges:  s.fstate.Front.Graph.NumEdges(),
		GraphBytes:  s.fstate.Front.Graph.Footprint(),
		Tombstones:  s.col.Tombstones(),
		Compactions: s.compactions,
	}
	if w := s.p.wal; w != nil {
		st := w.Stats()
		g.WALBytes, g.WALRecords = st.Bytes, st.Records
		g.WALCheckpoints, g.WALLastSyncNs = st.Checkpoints, st.LastSyncUnixNano
	}
	if cs := s.p.store; cs != nil {
		st := cs.Stats()
		g.StoreBytes, g.StoreResidentBytes, g.StoreKeys = st.Bytes, st.Resident, st.Keys
	}
	return g
}

// maybeCompact opens a new compaction epoch when the tombstone density
// of the shared collection has reached the configured threshold: the
// live descriptions move into a fresh collection under dense ids, the
// surviving merges and the TTL generations are remapped onto
// the new ids, and the old epoch's store records are dropped. It runs
// no front-end pass: the epoch is decided before the wave's pass, and
// that one pass (syncFront, over the re-based front-end state) is the
// rebuild — its Retract replay then rebuilds the resolver exactly as a
// from-scratch session over the surviving corpus would. During
// recovery the fold opens the same epochs at the same records, and
// the session's one pass covers them all. References (KB + URI) never
// change; only internal ids move.
//
// Runs inside fold, after the departed merges are dropped (so every
// merge id is live and has a new id) and after expireTTL (so no
// surviving generation is at or past the cutoff, and the TTL cursor
// can rewind to 0 over the compacted, tombstone-free generation
// array). An error is not retryable — the mutation is already in the
// collection — so a live wave poisons the session on it and recovery
// fails. The first return value reports whether a compaction epoch
// happened, so a live wave can checkpoint the write-ahead log after
// its pass completes.
//
// Superseded sessions hold merge ids of the old id space, so they keep
// reading the collection they were built over (Session.col) and go on
// resolving their frozen view; only this session and the pipeline move
// to the compacted one.
func (s *Session) maybeCompact() (bool, error) {
	thr := s.p.compactionThreshold()
	col := s.col
	if thr <= 0 || col.Len() == 0 {
		return false, nil
	}
	if float64(col.Tombstones()) < thr*float64(col.Len()) {
		return false, nil
	}
	newCol, oldToNew := col.Compact()
	// With a store attached, Compact paged every survivor's body in from
	// the old epoch and rewrote it under the new one; either side may
	// have parked a failure.
	if err := errors.Join(col.ColdErr(), newCol.ColdErr()); err != nil {
		return false, fmt.Errorf("minoaner: compaction: description store: %w", err)
	}
	s.p.col, s.col = newCol, newCol
	for i := range s.merges {
		s.merges[i].A = oldToNew[s.merges[i].A]
		s.merges[i].B = oldToNew[s.merges[i].B]
	}
	if s.gens != nil {
		kept := s.gens[:0]
		for id, g := range s.gens {
			if oldToNew[id] >= 0 {
				kept = append(kept, g)
			}
		}
		s.gens = kept
		s.expired = 0
	}
	s.compactions++
	if st := s.p.store; st != nil {
		// The old epoch's cold records are superseded: delete them and
		// let the store rewrite its file without the dead bytes —
		// the compaction epoch is the moment disk space is actually
		// reclaimed. A store that cannot shed its garbage only falls
		// further behind, so failures here are fatal like every other
		// compaction error (the false return just skips the log
		// checkpoint a poisoned session would never reach).
		if err := col.DropCold(); err != nil {
			return false, fmt.Errorf("minoaner: compaction: drop old epoch: %w", err)
		}
		if err := st.Compact(); err != nil {
			return false, fmt.Errorf("minoaner: compaction: store compact: %w", err)
		}
	}
	return true, nil
}

// walCheckpoint rotates the write-ahead log down to a single
// checkpoint record holding the live corpus (and, for TTL sessions,
// each description's age in batches) — called after a compaction epoch,
// the natural moment the corpus is dense and tombstone-free. Replay of
// a checkpointed log restores the corpus, re-bases the TTL clock from
// the recorded ages, and continues with the records that follow.
func (s *Session) walCheckpoint() error {
	w := s.p.wal
	if w == nil {
		return nil
	}
	col := s.col
	chk := walCheckpoint{Descs: make([]Description, 0, col.NumAlive())}
	if s.gens != nil {
		chk.Ages = make([]int, 0, col.NumAlive())
	}
	for id := 0; id < col.Len(); id++ {
		if !col.Alive(id) {
			continue
		}
		d := col.Desc(id)
		chk.Descs = append(chk.Descs, Description{
			KB: d.KB, URI: d.URI, Types: d.Types, Attrs: d.Attrs, Links: d.Links,
		})
		if s.gens != nil {
			chk.Ages = append(chk.Ages, s.curGen-s.gens[id])
		}
	}
	data, err := json.Marshal(chk)
	if err != nil {
		return fmt.Errorf("minoaner: %w: %v", ErrCheckpoint, err)
	}
	// The cap the session splits ingest batches under (wal.MaxPayload
	// unless a test lowered it) bounds the checkpoint too.
	if cap := s.p.payloadCap(); len(data) > cap {
		return fmt.Errorf("minoaner: %w: checkpoint of %d bytes over the %d-byte frame cap", ErrCheckpoint, len(data), cap)
	}
	if err := w.Checkpoint(data); err != nil {
		return fmt.Errorf("minoaner: %w: %v", ErrCheckpoint, err)
	}
	return nil
}

// SyncWAL forces every record appended so far onto stable storage.
// Under FsyncWave this is the commit point — the server's writer
// goroutine calls it once per commit wave, making one wave one durable
// unit; under FsyncAlways each append already synced and under FsyncOff
// (or without a log) it is a no-op.
func (s *Session) SyncWAL() error { return s.p.SyncWAL() }

// SyncWAL is the pipeline-level form of Session.SyncWAL, for syncing
// pre-Start loads.
func (p *Pipeline) SyncWAL() error {
	if p.wal == nil {
		return nil
	}
	if err := p.wal.Commit(); err != nil {
		return fmt.Errorf("minoaner: %w", err)
	}
	return nil
}

// expireTTL tombstones every description whose ingest batch slid out
// of the TTL window. Ids are stamped in batch order, so the expired
// region is a prefix and the scan resumes at a cursor — total expiry
// work over a session's lifetime is linear in the ids ever stamped.
func (s *Session) expireTTL() {
	ttl := s.p.cfg.TTL
	if ttl <= 0 {
		return
	}
	// Stamp ids that arrived since the last pass with the current batch.
	for id := len(s.gens); id < s.col.Len(); id++ {
		s.gens = append(s.gens, s.curGen)
	}
	cutoff := s.curGen - ttl
	for s.expired < len(s.gens) && s.gens[s.expired] <= cutoff {
		s.col.Evict(s.expired) // no-op when already evicted by hand
		s.expired++
	}
}

// ref builds the stable reference of an id from the always-hot KB and
// URI arrays — never from Desc, which in store mode would page a whole
// body in just to read two fields every result row repeats.
func (s *Session) ref(id int) Ref {
	return Ref{KB: s.col.KBName(s.col.KBOf(id)), URI: s.col.URIOf(id)}
}

func bruteForce(c *kb.Collection) int {
	n := c.NumAlive()
	total := n * (n - 1) / 2
	if c.NumLiveKBs() <= 1 {
		return total
	}
	perKB := make([]int, c.NumKBs())
	for id := 0; id < c.Len(); id++ {
		if c.Alive(id) {
			perKB[c.KBOf(id)]++
		}
	}
	for _, k := range perKB {
		total -= k * (k - 1) / 2
	}
	return total
}
