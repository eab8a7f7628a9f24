// Package server exposes a live minoaner Session over HTTP —
// resolution as a service.
//
// The design splits the read path from the write path the way HTAP
// systems do. Reads (GET /resolve, /clusters, /sameas, /status) are
// served from an immutable Snapshot of the session's cluster state
// held behind an atomic pointer: a reader loads the pointer and walks
// plain data — no lock, no channel, no contact with the resolver — so
// any number of concurrent readers proceed at memory speed while a
// mutation is in flight. Writes (POST /ingest, /evict, /resume) are
// validated in the handler, then enqueued to a single writer goroutine
// that owns the Session outright; it applies queued mutations in commit
// waves, captures a fresh Snapshot, and swaps the pointer, bumping the
// epoch. A mutation only folds and the Snapshot makes the front-end
// pass, so a wave amortizes the pass as well as the snapshot. A
// response's epoch therefore names exactly one committed state: two
// reads reporting the same epoch saw byte-identical data, and no read
// ever observes a half-applied wave.
//
// Errors cross the wire by type, not by string: the sentinel errors of
// the public minoaner API map onto status codes (ErrBadBatch and RDF
// parse errors → 400, an oversized body or a description too large for
// one log frame → 413, ErrUnknownDescription/
// ErrUnknownKB → 404, ErrSessionClosed → 409, a closed server or
// cancelled request → 503, a desynced session → 500; a wave whose pass
// fails publishes nothing and answers 500 to each op that has no error
// of its own).
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	minoaner "repro"
	"repro/internal/kb"
	"repro/internal/rdf"
	"repro/internal/wal"
)

// ErrClosed reports an operation on a server whose writer has shut
// down. Test with errors.Is.
var ErrClosed = errors.New("server closed")

// maxWave caps how many queued mutations one commit wave applies
// before swapping the snapshot, bounding the staleness a burst of
// writes can impose on readers.
const maxWave = 64

// DefaultMaxBody is the default cap on a mutation request body (a JSON
// batch or an N-Triples document): 64 MiB, far above any sane batch,
// far below a mistake. Config.MaxBody overrides it per server — the
// operator-facing knob is the serve command's -max-body flag.
const DefaultMaxBody int64 = 64 << 20

// Config tunes a Server beyond its Session. The zero value takes the
// documented defaults.
type Config struct {
	// MaxBody caps a mutation request body in bytes; a body outgrowing
	// it answers 413 (0 = DefaultMaxBody).
	MaxBody int64
}

// Server serves one live Session. Create with New, attach Handler to
// an http.Server, Close when done.
type Server struct {
	sess    *minoaner.Session
	maxBody int64
	snap    atomic.Pointer[epochView]
	ops     chan *op
	quit    chan struct{} // closed by Close: writer drains and exits
	done    chan struct{} // closed by the writer on exit

	closeOnce sync.Once
}

// epochView pairs a Snapshot with the epoch that committed it. The
// struct is immutable once stored; the atomic pointer swap is the only
// synchronization between the writer and the readers.
type epochView struct {
	epoch uint64
	view  *minoaner.Snapshot
}

// op is one queued mutation: its request context (cancellation makes
// the writer skip or abandon it), the mutation itself, and a buffered
// reply channel the writer always answers on.
type op struct {
	ctx   context.Context
	apply func(context.Context) error
	reply chan opResult
}

type opResult struct {
	epoch uint64
	err   error
}

// New wraps a started Session in a Server and launches the writer
// goroutine. The caller must not touch the Session (or its Pipeline)
// afterwards: the writer goroutine is its single owner — that
// exclusivity is what lets readers go lock-free. New panics if the
// session's Snapshot fails: a poisoned session has none to serve.
func New(sess *minoaner.Session) *Server { return NewWith(sess, Config{}) }

// NewWith is New with explicit server configuration.
func NewWith(sess *minoaner.Session, cfg Config) *Server {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	s := &Server{
		sess:    sess,
		maxBody: cfg.MaxBody,
		ops:     make(chan *op, maxWave),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	view, err := sess.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("server: the session has no snapshot to serve: %v", err))
	}
	s.snap.Store(&epochView{epoch: 1, view: view})
	go s.writer()
	return s
}

// Close shuts the writer down, failing queued mutations with ErrClosed,
// and waits for it to exit. Reads keep working against the last
// committed snapshot; mutations return 503.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	<-s.done
}

// Epoch returns the epoch of the currently published snapshot.
func (s *Server) Epoch() uint64 { return s.snap.Load().epoch }

// writer is the single goroutine that owns the Session: it applies
// mutations in waves and publishes one fresh snapshot per wave.
func (s *Server) writer() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.drainOps()
			return
		case first := <-s.ops:
			wave := s.gather(first)
			errs := make([]error, len(wave))
			for i, o := range wave {
				if err := o.ctx.Err(); err != nil {
					errs[i] = err // client gave up while queued
					continue
				}
				errs[i] = o.apply(o.ctx)
			}
			// One commit wave = one durable unit: under fsync=wave the
			// whole burst reaches stable storage in a single sync before
			// anyone is acknowledged, and the snapshot makes the wave's
			// one pass. If either fails, no op in the wave may claim
			// success; a failed pass publishes nothing.
			failed := s.sess.SyncWAL()
			ev := s.snap.Load()
			if view, err := s.sess.Snapshot(); err != nil {
				failed = cmp.Or(failed, err)
			} else {
				ev = &epochView{epoch: ev.epoch + 1, view: view}
				s.snap.Store(ev)
			}
			for i, o := range wave {
				o.reply <- opResult{epoch: ev.epoch, err: cmp.Or(errs[i], failed)}
			}
		}
	}
}

// gather batches the mutations already queued behind first into one
// commit wave, without blocking.
func (s *Server) gather(first *op) []*op {
	wave := []*op{first}
	for len(wave) < maxWave {
		select {
		case o := <-s.ops:
			wave = append(wave, o)
		default:
			return wave
		}
	}
	return wave
}

// drainOps answers every still-queued mutation with ErrClosed so no
// handler is left waiting after shutdown.
func (s *Server) drainOps() {
	for {
		select {
		case o := <-s.ops:
			o.reply <- opResult{err: ErrClosed}
		default:
			return
		}
	}
}

// do enqueues one mutation and waits for its commit wave. The reply
// channel is buffered and the writer (or drainOps) always answers, so
// the wait only falls through when the writer exited without seeing
// the op.
func (s *Server) do(ctx context.Context, apply func(context.Context) error) (uint64, error) {
	o := &op{ctx: ctx, apply: apply, reply: make(chan opResult, 1)}
	select {
	case s.ops <- o:
	case <-s.quit:
		return 0, ErrClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	select {
	case r := <-o.reply:
		return r.epoch, r.err
	case <-s.done:
		return 0, ErrClosed
	}
}

// Handler returns the HTTP API. Method-qualified patterns make the
// mux answer 405 for wrong methods on known paths.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /resolve", s.handleResolve)
	mux.HandleFunc("GET /clusters", s.handleClusters)
	mux.HandleFunc("GET /sameas", s.handleSameAs)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("POST /evict", s.handleEvict)
	mux.HandleFunc("POST /resume", s.handleResume)
	return mux
}

// epochHeader names the response header carrying the snapshot epoch a
// response was served from — on every endpoint, including the
// N-Triples dump, whose body has no room for it.
const epochHeader = "Minoaner-Epoch"

type resolveEntry struct {
	Ref     minoaner.Ref     `json:"ref"`
	Cluster minoaner.Cluster `json:"cluster"`
}

type resolveResponse struct {
	Epoch   uint64         `json:"epoch"`
	URI     string         `json:"uri"`
	Results []resolveEntry `json:"results"`
}

// handleResolve answers GET /resolve?uri=…[&kb=…]: the cluster holding
// the description. Without kb, every KB's description carrying the URI
// answers, each with its cluster.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	ev := s.snap.Load()
	uri := r.URL.Query().Get("uri")
	if uri == "" {
		writeError(w, ev.epoch, http.StatusBadRequest, errors.New("missing uri parameter"))
		return
	}
	var results []resolveEntry
	if kbName := r.URL.Query().Get("kb"); kbName != "" {
		cl, ok := ev.view.Cluster(kbName, uri)
		if !ok {
			writeError(w, ev.epoch, http.StatusNotFound,
				fmt.Errorf("no description %s in KB %s", uri, kbName))
			return
		}
		results = []resolveEntry{{Ref: minoaner.Ref{KB: kbName, URI: uri}, Cluster: cl}}
	} else {
		refs := ev.view.Refs(uri)
		if len(refs) == 0 {
			writeError(w, ev.epoch, http.StatusNotFound, fmt.Errorf("no description %s", uri))
			return
		}
		for _, ref := range refs {
			cl, _ := ev.view.Cluster(ref.KB, ref.URI)
			results = append(results, resolveEntry{Ref: ref, Cluster: cl})
		}
	}
	writeJSON(w, ev.epoch, http.StatusOK, resolveResponse{Epoch: ev.epoch, URI: uri, Results: results})
}

type clustersResponse struct {
	Epoch    uint64             `json:"epoch"`
	Clusters []minoaner.Cluster `json:"clusters"`
}

// handleClusters answers GET /clusters: every multi-member cluster of
// the current snapshot.
func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	ev := s.snap.Load()
	clusters := ev.view.Result().Clusters
	if clusters == nil {
		clusters = []minoaner.Cluster{} // a stable wire format never says null
	}
	writeJSON(w, ev.epoch, http.StatusOK, clustersResponse{Epoch: ev.epoch, Clusters: clusters})
}

type sameAsResponse struct {
	Epoch   uint64           `json:"epoch"`
	Matches []minoaner.Match `json:"matches"`
}

// handleSameAs answers GET /sameas, negotiating the representation:
// JSON (the default, or Accept: application/json) carries the scored
// matches; N-Triples (Accept: application/n-triples or text/plain, or
// ?format=nt) is the owl:sameAs dump — byte-identical to
// Result.SameAs, shared serializer and all.
func (s *Server) handleSameAs(w http.ResponseWriter, r *http.Request) {
	ev := s.snap.Load()
	ntriples := false
	switch format := r.URL.Query().Get("format"); format {
	case "nt", "ntriples", "n-triples":
		ntriples = true
	case "", "json":
		accept := r.Header.Get("Accept")
		ntriples = strings.Contains(accept, "application/n-triples") ||
			strings.Contains(accept, "text/plain")
	default:
		writeError(w, ev.epoch, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want nt or json)", format))
		return
	}
	if ntriples {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set(epochHeader, strconv.FormatUint(ev.epoch, 10))
		io.WriteString(w, ev.view.SameAs())
		return
	}
	matches := ev.view.Result().Matches
	if matches == nil {
		matches = []minoaner.Match{}
	}
	writeJSON(w, ev.epoch, http.StatusOK, sameAsResponse{Epoch: ev.epoch, Matches: matches})
}

type statusResponse struct {
	Epoch       uint64           `json:"epoch"`
	Pending     int              `json:"pending"`
	BudgetSpent int              `json:"budgetSpent"`
	Gated       int              `json:"gated"`
	Clusters    int              `json:"clusters"`
	Stats       minoaner.Stats   `json:"stats"`
	Timings     minoaner.Timings `json:"timings"`
	Gauges      minoaner.Gauges  `json:"gauges"`
}

// handleStatus answers GET /status: progress, queue depth, budget
// spent (decided comparisons), the pairs the gate keeps out of the
// current schedule (like pending, a reading that can fall), per-stage
// timings, the memory gauges (blocking-graph
// footprint, write-ahead-log size and rotations), and the snapshot
// epoch.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ev := s.snap.Load()
	st := ev.view.Stats()
	writeJSON(w, ev.epoch, http.StatusOK, statusResponse{
		Epoch:       ev.epoch,
		Pending:     ev.view.Pending(),
		BudgetSpent: st.Comparisons,
		Gated:       st.Gated,
		Clusters:    len(ev.view.Result().Clusters),
		Stats:       st,
		Timings:     ev.view.Timings(),
		Gauges:      ev.view.Gauges(),
	})
}

type mutationResponse struct {
	Epoch    uint64 `json:"epoch"`
	Ingested int    `json:"ingested,omitempty"`
}

// handleIngest answers POST /ingest. Two representations, selected by
// Content-Type: a JSON array of descriptions (the default), or an
// N-Triples document (application/n-triples or text/plain) ingested
// into the KB named by the required ?kb= parameter. Either is parsed
// and validated here, so a malformed body or a batch Ingest would refuse
// is answered 400 at the current epoch, before it reaches the writer.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	var batch []minoaner.Description
	ctype := r.Header.Get("Content-Type")
	if strings.Contains(ctype, "application/n-triples") || strings.Contains(ctype, "text/plain") {
		kbName := r.URL.Query().Get("kb")
		if kbName == "" {
			writeError(w, s.Epoch(), http.StatusBadRequest,
				errors.New("N-Triples ingest needs a kb parameter"))
			return
		}
		var err error
		if batch, err = kb.Read(kb.NTriples, kbName, body); err != nil {
			writeError(w, s.Epoch(), bodyStatus(err), fmt.Errorf("parse %s: %w", kbName, err))
			return
		}
	} else if err := json.NewDecoder(body).Decode(&batch); err != nil {
		writeError(w, s.Epoch(), bodyStatus(err), fmt.Errorf("decode batch: %w", err))
		return
	}
	if err := minoaner.ValidateBatch(batch); err != nil {
		writeError(w, s.Epoch(), errStatus(err), err)
		return
	}
	epoch, err := s.do(r.Context(), func(context.Context) error {
		return s.sess.Ingest(batch)
	})
	if err != nil {
		writeError(w, epoch, errStatus(err), err)
		return
	}
	writeJSON(w, epoch, http.StatusOK, mutationResponse{Epoch: epoch, Ingested: len(batch)})
}

type evictRequest struct {
	Refs []minoaner.Ref `json:"refs,omitempty"`
	KB   string         `json:"kb,omitempty"`
}

// handleEvict answers POST /evict with a JSON body naming either
// individual descriptions ({"refs": […]}) or a whole knowledge base
// ({"kb": "name"}).
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	var req evictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		writeError(w, s.Epoch(), bodyStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if (len(req.Refs) == 0) == (req.KB == "") {
		writeError(w, s.Epoch(), http.StatusBadRequest,
			errors.New(`want exactly one of "refs" or "kb"`))
		return
	}
	epoch, err := s.do(r.Context(), func(context.Context) error {
		if req.KB != "" {
			return s.sess.EvictKB(req.KB)
		}
		return s.sess.Evict(req.Refs)
	})
	if err != nil {
		writeError(w, epoch, errStatus(err), err)
		return
	}
	writeJSON(w, epoch, http.StatusOK, mutationResponse{Epoch: epoch})
}

type resumeResponse struct {
	Epoch       uint64 `json:"epoch"`
	BudgetSpent int    `json:"budgetSpent"`
	Matches     int    `json:"matches"`
	Pending     int    `json:"pending"`
}

// handleResume answers POST /resume?budget=N (0 or absent = until the
// schedule stops paying, leaving the tail below the priority floor
// counted in pending): it spends further comparison budget on the session,
// one unit per decided pair (gated pairs are never queued and spend
// none),
// honoring request cancellation between comparisons so a disconnected
// client cannot wedge the writer.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	budget := 0
	if v := r.URL.Query().Get("budget"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil || b < 0 {
			writeError(w, s.Epoch(), http.StatusBadRequest,
				fmt.Errorf("bad budget %q (want a non-negative integer)", v))
			return
		}
		budget = b
	}
	epoch, err := s.do(r.Context(), func(ctx context.Context) error {
		_, err := s.sess.ResumeContext(ctx, budget)
		return err
	})
	if err != nil {
		writeError(w, epoch, errStatus(err), err)
		return
	}
	ev := s.snap.Load() // includes our wave; possibly later ones too
	st := ev.view.Stats()
	writeJSON(w, epoch, http.StatusOK, resumeResponse{
		Epoch:       epoch,
		BudgetSpent: st.Comparisons,
		Matches:     st.Matches,
		Pending:     ev.view.Pending(),
	})
}

// bodyStatus maps a request-body read error to its status: a body that
// outgrew MaxBytesReader is the client sending too much (413), anything
// else is a malformed request (400). The JSON decoder wraps the
// *http.MaxBytesError it hits mid-stream, so match with errors.As.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errStatus maps an error to its HTTP status by type — the reason the
// public API grew sentinel errors.
func errStatus(err error) int {
	var parseErr *rdf.ParseError
	switch {
	case errors.Is(err, minoaner.ErrBadBatch), errors.As(err, &parseErr):
		return http.StatusBadRequest
	case errors.Is(err, minoaner.ErrCheckpoint):
		// The mutation was folded; only the log's rotation to a
		// checkpoint failed, and it is retried once another live count
		// of ids has departed. Nothing the client sent was wrong.
		return http.StatusInternalServerError
	case errors.Is(err, wal.ErrFrameTooLarge):
		// One description encodes past the log's frame cap: the
		// client's payload is too large, whatever -max-body allowed.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, minoaner.ErrUnknownDescription), errors.Is(err, minoaner.ErrUnknownKB):
		return http.StatusNotFound
	case errors.Is(err, minoaner.ErrSessionClosed):
		return http.StatusConflict
	case errors.Is(err, ErrClosed),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, minoaner.ErrDesynced):
		// A poisoned session is a server-side invariant failure: the
		// operator restarts (recovering via the WAL); clients retrying
		// would only see the same poison again.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

type errorResponse struct {
	Epoch uint64 `json:"epoch,omitempty"`
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, epoch uint64, status int, err error) {
	writeJSON(w, epoch, status, errorResponse{Epoch: epoch, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, epoch uint64, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // a failed write means the client went away; nothing to do
}
