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

// ErrDesynced reports a session whose front-end pass failed. A
// mutation only folds and leaves the session stale; the next read makes
// the pass, and when it fails the collection is ahead of what the
// matcher and resolver were built over. The session is poisoned: every
// later mutation, Resume and Snapshot refuses with this error rather
// than serve the desynchronized state, and Pending and Gauges, which
// return no error, keep the last good pass's numbers. Recovery is a
// restart: a write-ahead-logged session (see Open) replays every
// acknowledged mutation into a fresh, consistent session. Test with
// errors.Is; the error joins ErrDesynced with the first failure, which
// names the read whose pass failed.
var ErrDesynced = errors.New("session desynced")

// ErrCheckpoint reports a mutation whose write-ahead-log rotation to a
// checkpoint failed: the mutation itself was logged and folded and the
// session stays consistent (not desynced); only the log kept its
// pre-rotation length, and it still replays to the same state. The
// rotation is tried again once another live count of ids has departed
// (see Pipeline.rotate). Test with errors.Is. The
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
	// matches — much higher precision on dirty data (see internal/cluster's
	// TestClusteringImprovesDirtyPrecision).
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
	// the same worker count to score every retained edge's value
	// similarity when each pass builds the schedule, ahead of the serial
	// loop: 1 runs everything on the calling goroutine, n > 1 fans
	// tokenization, the graph kernel and that scoring out over n
	// workers, and 0 — the
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
	// Expired descriptions leave like evicted ones: the next read's pass
	// runs over a collection renumbered without them (see Session).
	// 0 (the default) disables the window.
	TTL int
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
	// Store is inert: description bodies always live in RAM, because
	// paging them to disk saved under 10 % of the heap at rest and
	// nothing at the peak (every pass's matcher rebuild reads every
	// live body). It is kept, validated, for the frozen benchmark's
	// read (ROADMAP item 1): "", "disk" and "disk-temp" are accepted;
	// any other value fails the first Open, Add or load.
	Store string
	// StoreDir is inert like Store: nothing is written to it. Store
	// "disk" still requires it.
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

// Stats reports per-stage pipeline measurements. The matching loop's
// unit is the decided pair: Comparisons counts the pairs the matcher
// decided, and a positive budget spends them. A pair whose value
// similarity can never match (below Match.MinValueSim) is never
// queued; Gated counts those in the current schedule.
type Stats struct {
	Descriptions    int `json:"descriptions"`
	KBs             int `json:"kbs"`
	BruteForce      int `json:"bruteForce"`      // comparisons without blocking
	Blocks          int `json:"blocks"`          // after cleaning
	BlockCandidates int `json:"blockCandidates"` // distinct pairs after cleaning
	PrunedEdges     int `json:"prunedEdges"`     // comparisons retained by meta-blocking
	Comparisons     int `json:"comparisons"`     // pairs this session decided (the budget's unit); never falls
	DiscoveredCmps  int `json:"discoveredCmps"`  // of those, the ones found by the update phase
	Gated           int `json:"gated"`           // retained and discovered pairs kept out of the current schedule: their value similarity can never match; a reading like Pending, it can fall after a pass
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
	// testPayloadCap overrides the WAL frame budget batch splitting and
	// checkpoints honor; tests use it to exercise the boundary without
	// allocating gigabyte payloads. 0 means the real wal.MaxPayload.
	testPayloadCap int
	// testNoRotate, when set, keeps the log from ever rotating to a
	// checkpoint, so tests can read it as one frame per mutation.
	testNoRotate bool
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
// requires the same Config the log was written under; TTL expiry folds
// deterministically from the recorded batches.
//
// After Open every mutation appends its record before applying it;
// Config.WALFsync decides when records additionally reach the disk.
// Close the pipeline when done to flush and sync the log.
func Open(dir string, cfg Config) (*Pipeline, error) { return New(cfg).open(dir) }

// open attaches the log under dir to a fresh pipeline, recovering
// whatever it holds.
func (p *Pipeline) open(dir string) (*Pipeline, error) {
	if err := p.checkStore(); err != nil {
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
	if p.wal == nil {
		return nil
	}
	return p.wal.Close()
}

// checkStore validates the inert Config.Store/StoreDir pair (see
// Config.Store); Open and every ingest run it.
func (p *Pipeline) checkStore() error {
	switch p.cfg.Store {
	case "", "disk-temp":
		return nil
	case "disk":
		if p.cfg.StoreDir == "" {
			return fmt.Errorf("minoaner: Config.Store %q requires Config.StoreDir", p.cfg.Store)
		}
		return nil
	}
	return fmt.Errorf("minoaner: unknown Config.Store %q (want \"\", \"disk\", or \"disk-temp\")", p.cfg.Store)
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
// it. Every record goes through the one fold live mutations use
// (Pipeline.fold): arrivals, merges and tombstones land in the
// collection, and once a Start record has opened a session, its TTL
// clock, expiry and count of departed ids advance exactly as they did
// in the original timeline — all of them deterministic in the mutation
// sequence. No record runs a pass or a compaction, just as no live
// mutation does. Once the log is consumed the recovered session makes
// its one Session.pass, as a read after live mutations does.
//
// That one pass is the whole session, not an approximation of it: the
// front end is a pure function of the live collection, and the log
// carries no resolution progress, so the session holds no merges
// throughout — and with no merges a pass's Retract equals a fresh
// resolver. The pipeline's log is still detached, so nothing
// re-appends and nothing rotates.
func (p *Pipeline) replay(recs []Record) error {
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
			p.fold(chk.Descs, nil)
			s, err := p.newSession()
			if err != nil {
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
			p.current = s
		case TypeStart:
			s, err := p.newSession()
			if err != nil {
				return fmt.Errorf("minoaner: wal: replay start: %w", err)
			}
			p.current = s
		case TypeIngest:
			var batch []Description
			if err := json.Unmarshal(rec.Payload, &batch); err != nil {
				return fmt.Errorf("minoaner: wal: decode ingest record %d: %w", i, err)
			}
			p.fold(batch, nil)
		case TypeEvict:
			var ev walEvict
			if err := json.Unmarshal(rec.Payload, &ev); err != nil {
				return fmt.Errorf("minoaner: wal: decode evict record %d: %w", i, err)
			}
			if p.current == nil {
				return fmt.Errorf("minoaner: wal: evict record %d precedes any start", i)
			}
			ids, err := p.evictIDs(ev)
			if err != nil {
				return fmt.Errorf("minoaner: wal: replay evict record %d: %w", i, err)
			}
			p.fold(nil, ids)
		default:
			return fmt.Errorf("minoaner: wal: unknown record type %d at record %d", rec.Type, i)
		}
	}
	if s := p.current; s != nil {
		if err := s.pass(); err != nil {
			return fmt.Errorf("minoaner: wal: rebuild session: %w", err)
		}
	}
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
// engine options — one translation for every session's pass.
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
func (p *Pipeline) LoadKB(name string, r io.Reader) error { return p.load(kb.NTriples, name, r) }

// LoadKBTurtle reads a Turtle stream as one knowledge base. After
// Start it streams into the current session, like LoadKB.
func (p *Pipeline) LoadKBTurtle(name string, r io.Reader) error { return p.load(kb.Turtle, name, r) }

// LoadQuads reads an N-Quads stream, mapping each named graph to its
// own knowledge base — the layout of Web-crawl corpora (BTC), where
// the graph label records the publishing dataset. Statements in the
// default graph land in defaultKB. After Start it streams into the
// current session, like LoadKB.
func (p *Pipeline) LoadQuads(defaultKB string, r io.Reader) error {
	return p.load(kb.NQuads, defaultKB, r)
}

// LoadKBFile reads an RDF file as one knowledge base. Files ending in
// .ttl or .turtle parse as Turtle, everything else as N-Triples.
func (p *Pipeline) LoadKBFile(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("minoaner: %w", err)
	}
	defer f.Close()
	return p.load(kb.SyntaxOf(path), name, f)
}

func (p *Pipeline) load(syn kb.Syntax, name string, r io.Reader) error {
	batch, err := readKB(syn, name, r)
	if err != nil {
		return err
	}
	return p.dispatchIngest(batch)
}

// readKB parses a document of the given syntax into the descriptions
// of KB name (for N-Quads, the default graph's KB) — the one way RDF
// enters a pipeline or session.
func readKB(syn kb.Syntax, name string, r io.Reader) ([]Description, error) {
	if name == "" {
		return nil, fmt.Errorf("minoaner: KB name must not be empty: %w", ErrBadBatch)
	}
	batch, err := kb.Read(syn, name, r)
	if err != nil {
		return nil, fmt.Errorf("minoaner: load %s: %w", name, err)
	}
	return batch, nil
}

// AddDescription inserts one description directly (for programmatic
// construction without RDF). Attribute values carry token evidence;
// links name other descriptions' URIs in the same KB. After Start it
// streams into the current session, like Add.
func (p *Pipeline) AddDescription(kbName, uri string, attrs map[string]string, links []string) error {
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
func (p *Pipeline) Add(batch []Description) error { return p.dispatchIngest(batch) }

// dispatchIngest validates a wire batch and routes it through the one fold
// (Pipeline.fold): into the shared collection before Start, as a
// streaming mutation of the live session after it. Every load, add and
// ingest funnels through here (parse first, then log, then fold), so
// the log's ingest records are exactly the batches the collection
// absorbed, replayable without re-parsing any RDF. No pass runs here;
// after Start the session's next read makes it. An empty batch — an
// empty document — is not logged and, after Start, does not advance the
// TTL clock: only arriving data slides the window. Without a log the
// batch is folded whole, as one batch, and never encoded.
//
// With a log, one frame caps at wal.MaxPayload bytes; a larger batch
// splits into halves recursively, and each chunk is logged — its
// encoding from the split, appended as is — and folded as its own
// ingest, so the log records exactly what happened and replay, which
// sees one record per chunk, folds the identical batches, TTL
// generation stamping included. An oversized logged batch therefore
// counts as several batches against a TTL window; the alternative — one
// wider-than-the-log batch — could never be recovered faithfully. A
// chunk whose log rotation fails (ErrCheckpoint) was folded and leaves
// the session consistent, so the rest of the batch is folded too and
// the error is returned last.
func (p *Pipeline) dispatchIngest(batch []Description) error {
	if err := ValidateBatch(batch); err != nil {
		return err
	}
	if err := p.checkStore(); err != nil {
		return err
	}
	if s := p.current; s != nil && s.desynced != nil {
		return s.desynced
	}
	if len(batch) == 0 {
		return nil
	}
	if p.wal == nil {
		p.fold(batch, nil)
		return nil
	}
	chunks, err := splitBatch(batch, p.payloadCap())
	if err != nil {
		return err // refused whole before anything was logged or folded
	}
	var rotation error
	for _, c := range chunks {
		if err := p.wal.Append(TypeIngest, c.data); err != nil {
			return fmt.Errorf("minoaner: %w", err)
		}
		p.fold(c.descs, nil)
		if err := p.rotate(); err != nil {
			rotation = err
		}
	}
	return rotation
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

// walChunk is one logged ingest: a slice of the batch and its JSON
// encoding, the record's payload.
type walChunk struct {
	descs []Description
	data  []byte
}

// splitBatch cuts a wire batch into chunks whose JSON encoding fits the
// frame cap, halving recursively; order is preserved, and each chunk
// carries the encoding the split measured, so it is marshalled once. A
// single description too large for any frame is refused with the typed
// wal.ErrFrameTooLarge before anything is logged or applied — the log
// layer holds the same guard as defense in depth, where an unchecked
// length would otherwise be narrowed to the frame's 32-bit field and
// corrupt the log.
func splitBatch(batch []Description, cap int) ([]walChunk, error) {
	data, err := json.Marshal(batch)
	if err != nil {
		return nil, fmt.Errorf("minoaner: wal: %w", err)
	}
	if len(data) <= cap {
		return []walChunk{{batch, data}}, nil
	}
	if len(batch) == 1 {
		return nil, fmt.Errorf("minoaner: description %s %s encodes to %d bytes over the %d-byte frame cap: %w",
			batch[0].KB, batch[0].URI, len(data), cap, wal.ErrFrameTooLarge)
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

// ValidateBatch returns the ErrBadBatch that Ingest would refuse batch
// with — a description with an empty KB name or URI — and touches no
// session, so a caller that queues batches for a writer can refuse a
// bad one before it costs a wave.
func ValidateBatch(batch []Description) error {
	for _, d := range batch {
		if d.KB == "" || d.URI == "" {
			return fmt.Errorf("minoaner: KB name and URI must not be empty: %w", ErrBadBatch)
		}
	}
	return nil
}

// fold applies one mutation — a batch of arrivals or a set of ids to
// tombstone — to the pipeline's collection and the current session's
// bookkeeping, and runs no pass: it is the one fold of pre-Start loads,
// streaming mutations and every replayed record (see replay). Before
// Start everything loaded is batch 0. After it the TTL clock advances
// when the batch brought data, whatever slid out of the window expires,
// the ids that departed are counted toward the next log rotation, and
// the session is stale until its next read makes the pass. Every fold
// after Start changes the collection: no empty batch is ever logged or
// folded, and an eviction that names nothing live is neither.
func (p *Pipeline) fold(batch []Description, gone []int) {
	col := p.col
	dead := col.Tombstones()
	bodies := slices.Clone(batch) // the collection owns its descriptions
	for i := range bodies {
		col.Add(&bodies[i])
	}
	s := p.current
	if s == nil {
		return
	}
	for _, id := range gone {
		col.Evict(id)
	}
	if len(batch) > 0 {
		s.curGen++
	}
	s.expireTTL()
	s.departed += col.Tombstones() - dead
	s.stale = true
}

// rotate applies the log-rotation rule after a live mutation's fold:
// once as many ids have departed since the last attempt as are live,
// the log holds at least as much history as corpus, and it is rewritten
// as one checkpoint of the live corpus. A failure does not poison — the
// pre-rotation log still replays to the session — and restarts the
// count like a success, so a checkpoint over the frame cap is not
// re-marshalled on every mutation. Replay never rotates: the log is
// attached after it.
func (p *Pipeline) rotate() error {
	s := p.current
	if s == nil || p.wal == nil || p.testNoRotate || s.departed < p.col.NumAlive() {
		return nil
	}
	s.departed = 0
	return s.walCheckpoint()
}

// NumDescriptions returns how many live descriptions are loaded.
func (p *Pipeline) NumDescriptions() int { return p.col.NumAlive() }

// Resolve runs the full pipeline with budget 0: matching runs until
// the schedule stops paying, at the benefit model's priority floor (see
// Session.Resume).
func (p *Pipeline) Resolve() (*Result, error) { return p.ResolveBudget(0) }

// ResolveBudget runs the pipeline, deciding at most budget
// comparisons (0 = until the schedule stops paying, as Resolve) — the
// paper's pay-as-you-go mode: the scheduler spends the budget on the
// most beneficial comparisons first.
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
// IngestKB fold new descriptions into the live session with the
// guarantee that ingesting a corpus in any number of batches and then
// resolving produces exactly the state a from-scratch session over the
// whole corpus would. Evict and EvictKB are the deletion mirror:
// descriptions leave the live session with the guarantee that the
// surviving state is exactly that of a from-scratch session over a
// corpus that never held them. Config.TTL drives Evict automatically
// as a sliding window over ingest batches. Between passes a session
// carries only its merges: every pass after the first rebuilds the
// resolver as a fresh one with the live matched steps replayed
// (core.Resolver.Retract).
//
// A pass is a function of two inputs, the live collection and the
// merges, and only Resume changes the merges. So a mutation makes no
// pass: it validates, logs, folds (see Pipeline.fold) and leaves the
// session stale, and the next read — Resume, Snapshot, Pending or
// Gauges — makes one pass for every mutation since the last, answering
// what a pass after each of them would have. Start and recovery make
// theirs at once. Nothing of the front end outlives a pass but the
// retained comparisons the resolver queues and the numbers Stats and
// Gauges report. Every pass begins by compacting away the ids that
// departed (until then they are tombstones), so it runs over dense ids
// that name live descriptions only. References (KB + URI) never change;
// only internal ids move.
type Session struct {
	p *Pipeline
	// col is the collection the session's ids index: the pipeline's
	// while the session is current, replaced by each compaction (see
	// compact); Start hands the session it supersedes a copy.
	col      *kb.Collection
	eng      pipeline.Engine
	resolver *core.Resolver
	// base holds the Stats of the latest pass's front end (the cleaned
	// blocks, the graph's edges — its block candidates — and the pruned
	// edges); graphBytes is that graph's footprint, for Gauges.
	base       Stats
	graphBytes int
	// merges holds the matched steps over live ids in execution order;
	// failed ones are only counted, with the discovered ones, in
	// comparisons and discovered; neither ever falls.
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
	// departed counts the ids that left since the log last tried to
	// rotate to a checkpoint; a mutation after which it reaches the live
	// count rotates the log (see Pipeline.rotate).
	departed int
	// stale is set by every fold and cleared by the pass the next read
	// makes (see Pipeline.fold, settle).
	stale bool
	// tim accumulates the session-level wall-clock counters (passes,
	// resolve legs); the matching-stage split lives in the resolver and
	// is merged in by Timings().
	tim Timings
	// desynced, once set, is the sticky poison of a read whose pass
	// failed (see settle): every later mutation, Resume and Snapshot
	// returns it. It wraps ErrDesynced and the first cause.
	desynced error
}

// Timings reports cumulative wall-clock time per pipeline stage of one
// session, in nanoseconds on the wire (the JSON field names end in Ns).
// FrontEnd is every pass (Session.pass: compaction, blocking→pruning,
// matcher and resolver rebuild, including the value-similarity scoring
// of every retained edge) — Start's, recovery's, and the one each read
// makes after mutations; a fold is not timed. Resolve is the matching
// loop end to end, and Schedule/Match/Update partition it (see
// internal/core.Timings).
type Timings struct {
	FrontEnd time.Duration `json:"frontendNs"`
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
//
// A session this Start supersedes first makes its pending pass, so it
// is never stale, and then keeps a copy of the collection that nothing
// mutates: it goes on serving the view of its last mutation. A failure
// of its pass poisons it, not this Start.
func (p *Pipeline) Start() (*Session, error) {
	old := p.current
	if old != nil {
		_ = old.settle("Start") // a failure poisons old, which this Start replaces
	}
	if p.col.NumAlive() == 0 {
		return nil, fmt.Errorf("minoaner: no descriptions loaded")
	}
	s, err := p.newSession()
	if err != nil {
		return nil, err
	}
	if err := s.pass(); err != nil {
		return nil, fmt.Errorf("minoaner: %w", err)
	}
	p.current = s
	if old != nil {
		old.col, _ = old.col.Compact() // the same ids; only the new session mutates p.col
	}
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
// bookkeeping — everything loaded so far is batch 0, nothing departed
// yet — and no resolver: its first pass builds one. Between the two,
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

// pass is the one front-end pass of Start, recovery and every read
// after a mutation: it compacts the session's collection, runs the
// front end over it, and records what Stats and Gauges report of it —
// BlockCandidates is the graph's edge count, since its edges are
// exactly the distinct comparable pairs of the cleaned blocks. The
// cleaned blocks and the graph are dropped there, before the matcher is
// rebuilt (IDF weights are global — linear work) and the resolver with
// it, by one rule: NewResolver on the session's first pass, Retract
// over the live merges after that; either scores every retained edge
// and queues only the pairs that can match. On success the session is
// no longer stale and the pass's time is charged to Timings.FrontEnd. A failure leaves the collection
// compacted and nothing else changed; callers decide whether that
// poisons the session.
func (s *Session) pass() error {
	t0 := time.Now()
	p := s.p
	s.compact()
	fe, err := pipeline.Run(s.eng, s.col, p.pipelineOptions())
	if err != nil {
		return err
	}
	s.base = Stats{
		Descriptions:    s.col.NumAlive(),
		KBs:             s.col.NumLiveKBs(),
		BruteForce:      bruteForce(s.col),
		Blocks:          fe.Blocks.NumBlocks(),
		BlockCandidates: fe.Graph.NumEdges(),
		PrunedEdges:     len(fe.Edges),
	}
	s.graphBytes = fe.Graph.Footprint()
	edges := fe.Edges // fe is not read again: the blocks and the graph are garbage from here
	m := match.NewMatcher(s.col, p.cfg.Match)
	if s.resolver == nil {
		s.resolver = core.NewResolver(m, edges, core.Config{
			Benefit:          p.cfg.Benefit,
			DisableDiscovery: p.cfg.DisableDiscovery,
			Workers:          parmeta.Workers(p.cfg.Workers),
		})
	} else {
		s.resolver.Retract(m, edges, s.merges)
	}
	s.stale = false
	s.tim.FrontEnd += time.Since(t0)
	return nil
}

// settle makes the pass the folds since the last pass left pending, if
// any; every read calls it first. A failed pass poisons the session
// (see ErrDesynced and poison): the mutations it was to serve were
// already logged and folded.
func (s *Session) settle(read string) error {
	if s.desynced != nil {
		return s.desynced
	}
	if !s.stale {
		return nil
	}
	if err := s.pass(); err != nil {
		return s.poison(fmt.Errorf("minoaner: %s: pass: %w", read, err))
	}
	return nil
}

// Resume decides up to budget further comparisons and returns the
// cumulative result of the session. Pairs whose value similarity can
// never match are never queued, so they spend no budget (Stats.Gated).
// Budget 0 runs until the schedule stops paying: it returns once the best queued comparison's priority
// is below the benefit model's floor, and leaves that tail queued, so
// Pending stays positive and a second Resume(0) executes nothing. A
// positive budget runs past the floor; a caller that wants the queue
// emptied passes a budget of at least Pending().
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
	if err := s.settle("Resume"); err != nil {
		return nil, err // a poisoned session serves no reads
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
	out.Stats.Gated = s.resolver.Gated()
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

// Pending returns an upper bound on the comparisons still queued (after
// a Resume(0), the tail below the priority floor that only a positive
// budget spends), making the pass pending mutations left first. It
// returns no error: a pass that fails here poisons the session, the
// next call that returns one reports it under Pending's name, and the
// count is the last good pass's.
func (s *Session) Pending() int {
	_ = s.settle("Pending") // a failure poisons the session; the resolver is the last good one
	return s.resolver.Pending()
}

// Snapshot is an immutable point-in-time view of a Session's
// resolution state: the cumulative Result, a cluster index for URI
// lookups, the pending count, and the timing counters — everything a
// read path needs, detached from the live session. Building one costs
// the front-end pass pending mutations left, if any, and a walk over
// the merges and the live descriptions; reading one costs
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

// Snapshot captures the session's current state, making the pass
// pending mutations left first; a poisoned session returns its
// ErrDesynced error and no snapshot. Like every Session method it must
// not race with a concurrent mutation; the returned value, once built,
// is safe to share among any number of goroutines.
func (s *Session) Snapshot() (*Snapshot, error) {
	if err := s.settle("Snapshot"); err != nil {
		return nil, err
	}
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
	return sn, nil
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
type Description = kb.Description

// Ingest streams a batch of new descriptions into the live session.
//
// Ingest validates, logs and folds the batch, and makes no pass. The
// next read's pass re-derives the front end over the grown corpus —
// only new or extended descriptions are tokenized anew; blocking,
// cleaning, the blocking graph and pruning run again in full, which on
// every measured workload costs less than maintaining them did — and
// rebuilds the resolver with the session's merges replayed, so new
// comparisons interleave with open ones in the benefit order a
// from-scratch session would schedule. If that pass fails, the read
// reports ErrDesynced.
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
// recent) one; a superseded session keeps resolving its frozen view,
// and only its mutations refuse.
func (s *Session) Ingest(batch []Description) error {
	if err := s.ingestable(); err != nil {
		return err
	}
	return s.p.dispatchIngest(batch)
}

// ingestable refuses streaming — ingestion and eviction alike — for
// any session but the pipeline's current one, whose collection and log
// are the pipeline's (a superseded session keeps a copy of its own; see
// Start), and for a poisoned one.
func (s *Session) ingestable() error {
	if s.p.current != s {
		return fmt.Errorf("minoaner: streaming requires the pipeline's current session (a newer Start superseded this one): %w", ErrSessionClosed)
	}
	return s.desynced
}

// IngestKB streams an N-Triples document into the live session as
// knowledge base name — LoadKB's streaming counterpart. Statements
// about subjects the session already knows extend their descriptions.
func (s *Session) IngestKB(name string, r io.Reader) error {
	batch, err := readKB(kb.NTriples, name, r)
	if err != nil {
		return err
	}
	return s.Ingest(batch)
}

// Evict removes descriptions from the live session. Every reference
// must name a description the session currently holds; otherwise —
// never loaded, already evicted, a typo — nothing is evicted and the
// error wraps ErrUnknownDescription. Duplicate references within one
// call collapse to one eviction.
//
// Like Ingest, Evict logs and folds — the descriptions are tombstoned —
// and makes no pass. The next read's pass compacts the tombstones away,
// re-derives the front end over the surviving corpus, has the matcher
// re-learn its global IDF weights over the survivors (linear work), and
// rebuilds the resolver as after an ingest: matches touching evicted
// descriptions leave the merges, clusters containing them split, and
// matches among survivors stay resolved.
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
// live corpus, the record is appended to the write-ahead log, the
// tombstones are folded in and the rotation rule is judged. An eviction
// that names nothing live — a KB already evicted down to empty — is not
// logged.
func (s *Session) evict(ev walEvict) error {
	p := s.p
	ids, err := p.evictIDs(ev)
	if err != nil || len(ids) == 0 {
		return err
	}
	// Every ref resolved against the live corpus, so the record will
	// replay cleanly; append it before the first tombstone lands.
	if err := p.walAppend(TypeEvict, ev); err != nil {
		return err
	}
	p.fold(nil, ids)
	return p.rotate()
}

// poison marks the session desynchronized, remembering the first cause;
// see settle. The sticky error wraps ErrDesynced (test with
// errors.Is) and the original failure.
func (s *Session) poison(cause error) error {
	if s.desynced == nil {
		s.desynced = errors.Join(ErrDesynced, cause)
	}
	return s.desynced
}

// Gauges reports the memory-relevant size gauges of a session — the
// numbers an operator watches to see whether a long-lived streaming
// session is holding its footprint: the blocking graph of the latest
// pass (edges and bytes — Graph.Footprint, 12 per edge plus 4 per
// node — recorded by the pass that built and dropped it: its peak, not
// a resident size) and the write-ahead log. Exposed on the server's
// /status endpoint via Snapshot.
type Gauges struct {
	GraphEdges int `json:"graphEdges"`
	GraphBytes int `json:"graphBytes"`
	// Write-ahead-log gauges, zero (and omitted from JSON) without a
	// log: current log size, records in the current file (a fresh
	// checkpoint resets this to 1 — the records accumulated since the
	// last rotation), rotations performed, and the wall-clock of the
	// last fsync (0 under FsyncOff: nothing has been made durable).
	WALBytes       int64 `json:"walBytes,omitempty"`
	WALRecords     int64 `json:"walRecords,omitempty"`
	WALCheckpoints int64 `json:"walCheckpoints,omitempty"`
	WALLastSyncNs  int64 `json:"walLastSyncNs,omitempty"`
	// StoreCacheHits and StoreCacheMisses are always zero: there is no
	// decoded-description cache. They are kept for the frozen benchmark
	// read, ROADMAP item 1.
	StoreCacheHits   int64 `json:"storeCacheHits,omitempty"`
	StoreCacheMisses int64 `json:"storeCacheMisses,omitempty"`
}

// Gauges returns the session's current memory gauges, making the pass
// pending mutations left first; a pass that fails here is reported as
// Pending's is, and the graph is the last good pass's. Like every
// Session method it must not race with a concurrent mutation — the
// server captures it into each Snapshot from its writer goroutine.
func (s *Session) Gauges() Gauges {
	_ = s.settle("Gauges") // a failure poisons the session; the numbers are the last good pass's
	g := Gauges{GraphEdges: s.base.BlockCandidates, GraphBytes: s.graphBytes}
	if w := s.p.wal; w != nil {
		st := w.Stats()
		g.WALBytes, g.WALRecords = st.Bytes, st.Records
		g.WALCheckpoints, g.WALLastSyncNs = st.Checkpoints, st.LastSyncUnixNano
	}
	return g
}

// compact renumbers the session's collection densely when it holds any
// tombstone: the live descriptions move into a fresh collection under
// dense ids (kb.Collection.Compact), the merges are remapped onto them
// — a merge with a departed side is dropped — and so are the TTL
// generations. It runs no pass: it opens every pass (see pass), so
// that pass runs over live ids only and its Retract replay rebuilds the
// resolver exactly as a from-scratch session over the surviving corpus
// would. However many mutations were folded since the last pass —
// recovery folds the whole log — it compacts once.
//
// The merges are remapped after expireTTL has run, so no surviving
// generation is at or past the cutoff, and the TTL cursor rewinds to 0
// over the tombstone-free generation array.
//
// Only the current session compacts — Start leaves the one it
// supersedes settled — so the pipeline's collection moves with it.
func (s *Session) compact() {
	if s.col.Tombstones() == 0 {
		return
	}
	newCol, oldToNew := s.col.Compact()
	s.p.col, s.col = newCol, newCol
	kept := s.merges[:0]
	for _, st := range s.merges {
		if a, b := oldToNew[st.A], oldToNew[st.B]; a >= 0 && b >= 0 {
			st.A, st.B = a, b
			kept = append(kept, st)
		}
	}
	s.merges = kept
	if s.gens != nil {
		gens := s.gens[:0]
		for id, g := range s.gens {
			if oldToNew[id] >= 0 {
				gens = append(gens, g)
			}
		}
		s.gens = gens
		s.expired = 0
	}
}

// walCheckpoint rotates the write-ahead log down to a single
// checkpoint record holding the live corpus in id order (and, for TTL
// sessions, each description's age in batches) — called by
// Pipeline.rotate once as many ids have departed since the last
// rotation as are live, the point where a collection that kept its
// tombstones would be half dead. The fold has not been compacted, so
// tombstones are skipped; the live ids keep their relative order, which
// is the order a compaction would give them. Replay of a checkpointed
// log restores the corpus, re-bases the TTL clock from the recorded
// ages, and continues with the records that follow.
func (s *Session) walCheckpoint() error {
	w := s.p.wal
	col := s.col
	chk := walCheckpoint{Descs: make([]Description, 0, col.NumAlive())}
	if s.gens != nil {
		chk.Ages = make([]int, 0, col.NumAlive())
	}
	for id := 0; id < col.Len(); id++ {
		if !col.Alive(id) {
			continue
		}
		chk.Descs = append(chk.Descs, *col.Desc(id))
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
	// Stamp ids that arrived since the last fold with the current batch.
	for id := len(s.gens); id < s.col.Len(); id++ {
		s.gens = append(s.gens, s.curGen)
	}
	cutoff := s.curGen - ttl
	for s.expired < len(s.gens) && s.gens[s.expired] <= cutoff {
		s.col.Evict(s.expired) // no-op when already evicted by hand
		s.expired++
	}
}

// ref builds the stable reference of an id: its KB name and URI.
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
