// Command minoaner resolves entities across N-Triples knowledge bases
// and emits the discovered owl:sameAs links.
//
// Usage:
//
//	minoaner -kb dbp=dbpedia.nt -kb geo=geonames.nt [-budget N] [-out links.nt]
//	minoaner serve -kb dbp=dbpedia.nt -kb geo=geonames.nt [-addr host:port] [-budget N] [-wal dir]
//
// Each -kb flag names one knowledge base and its N-Triples file.
// With a single KB the run is dirty ER (duplicates within the KB);
// with several it is clean–clean ER across them. -budget caps the
// number of comparisons (pay-as-you-go); 0 means run to completion.
//
// The serve subcommand keeps the resolved session alive behind an HTTP
// API (see internal/server): snapshot reads on GET /resolve, /clusters,
// /sameas, and /status; single-writer mutations on POST /ingest,
// /evict, and /resume. SIGINT/SIGTERM shut it down cleanly. With -wal
// every mutation is write-ahead logged and a restart (even after a
// crash) recovers the session from the log instead of -kb files.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/server"
)

type kbFlags []string

func (k *kbFlags) String() string { return strings.Join(*k, ",") }

func (k *kbFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*k = append(*k, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "minoaner:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], nil, nil)
	}
	fs := flag.NewFlagSet("minoaner", flag.ContinueOnError)
	var kbs kbFlags
	fs.Var(&kbs, "kb", "knowledge base as name=path.nt (repeatable)")
	budget := fs.Int("budget", 0, "comparison budget (0 = unlimited)")
	out := fs.String("out", "", "write owl:sameAs links to this file (default stdout)")
	workers := fs.Int("workers", 0, "meta-blocking workers (0 = one per CPU, 1 = sequential)")
	verbose := fs.Bool("v", false, "print per-match lines to stderr")
	truth := fs.String("truth", "", "owl:sameAs ground-truth file: report precision/recall instead of links")
	clustering := fs.String("clustering", "closure", "final clustering: closure | center | unique")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(kbs) == 0 {
		fs.Usage()
		return fmt.Errorf("at least one -kb required")
	}
	if *budget < 0 {
		return fmt.Errorf("-budget %d is negative (0 = unlimited)", *budget)
	}

	cfg := minoaner.Defaults()
	cfg.Workers = *workers
	alg, err := clusteringAlg(*clustering)
	if err != nil {
		return err
	}
	cfg.Clustering = alg
	p := minoaner.New(cfg)
	for _, spec := range kbs {
		name, path, _ := strings.Cut(spec, "=")
		if err := p.LoadKBFile(name, path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %s from %s\n", name, path)
	}

	res, err := p.ResolveBudget(*budget)
	if err != nil {
		return err
	}
	s := res.Stats
	fmt.Fprintf(os.Stderr,
		"descriptions=%d kbs=%d brute=%d blocks=%d candidates=%d pruned=%d comparisons=%d discovered=%d matches=%d clusters=%d\n",
		s.Descriptions, s.KBs, s.BruteForce, s.Blocks, s.BlockCandidates,
		s.PrunedEdges, s.Comparisons, s.DiscoveredCmps, s.Matches, len(res.Clusters))
	if *verbose {
		for _, m := range res.Matches {
			tag := ""
			if m.Discovered {
				tag = " (discovered)"
			}
			fmt.Fprintf(os.Stderr, "match %.3f %s == %s%s\n", m.Score, m.A.URI, m.B.URI, tag)
		}
	}

	if *truth != "" {
		return evaluate(res, kbs, *truth)
	}

	links := res.SameAs()
	if *out == "" {
		fmt.Print(links)
		return nil
	}
	if err := os.WriteFile(*out, []byte(links), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", *out, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d links to %s\n", len(res.Matches), *out)
	return nil
}

func clusteringAlg(name string) (minoaner.Clustering, error) {
	switch name {
	case "closure":
		return minoaner.TransitiveClosure, nil
	case "center":
		return minoaner.CenterClustering, nil
	case "unique":
		return minoaner.UniqueMappingClustering, nil
	default:
		return 0, fmt.Errorf("unknown -clustering %q (want closure, center, or unique)", name)
	}
}

// runServe implements the serve subcommand: load the KBs, resolve the
// initial corpus under -budget, then keep the session alive behind the
// HTTP API until a signal (or quit, in tests) shuts it down.
//
// ready, when non-nil, receives the bound listener address once the
// server accepts connections; quit, when non-nil, replaces the signal
// handler as the shutdown trigger. Both exist so tests can drive a
// full serve lifecycle in-process; main passes nil for both.
func runServe(args []string, ready chan<- net.Addr, quit <-chan struct{}) error {
	fs := flag.NewFlagSet("minoaner serve", flag.ContinueOnError)
	var kbs kbFlags
	fs.Var(&kbs, "kb", "knowledge base as name=path.nt (repeatable)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral)")
	budget := fs.Int("budget", 0, "initial comparison budget before serving (0 = resolve fully)")
	workers := fs.Int("workers", 0, "pipeline workers (0 = one per CPU, 1 = sequential)")
	ttl := fs.Int("ttl", 0, "sliding-window TTL in ingest batches (0 = keep everything)")
	clustering := fs.String("clustering", "closure", "final clustering: closure | center | unique")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	walDir := fs.String("wal", "", "write-ahead-log directory: mutations are logged and a restart recovers the session (empty = RAM only)")
	walFsync := fs.String("wal-fsync", "wave", "WAL fsync policy with -wal: always | wave | off")
	maxBody := fs.Int64("max-body", server.DefaultMaxBody, "cap on a mutation request body in bytes (oversized requests answer 413)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *budget < 0 {
		return fmt.Errorf("-budget %d is negative (0 = resolve fully)", *budget)
	}

	cfg := minoaner.Defaults()
	cfg.Workers = *workers
	cfg.TTL = *ttl
	alg, err := clusteringAlg(*clustering)
	if err != nil {
		return err
	}
	cfg.Clustering = alg

	var p *minoaner.Pipeline
	if *walDir != "" {
		if cfg.WALFsync, err = minoaner.ParseFsyncPolicy(*walFsync); err != nil {
			return fmt.Errorf("-wal-fsync: %w", err)
		}
		if p, err = minoaner.Open(*walDir, cfg); err != nil {
			return err
		}
	} else {
		p = minoaner.New(cfg)
	}
	defer p.Close() // releases the WAL; no-op without one

	// A log that already holds a corpus defines the state; -kb would
	// re-load (and re-log) the same files on every restart.
	recovered := p.NumDescriptions() > 0
	if recovered {
		if len(kbs) > 0 {
			return fmt.Errorf("-kb conflicts with a recovered -wal session (the log already defines the corpus)")
		}
		fmt.Fprintf(os.Stderr, "recovered %d descriptions from %s\n", p.NumDescriptions(), *walDir)
	} else {
		if len(kbs) == 0 {
			fs.Usage()
			return fmt.Errorf("at least one -kb required")
		}
		for _, spec := range kbs {
			name, path, _ := strings.Cut(spec, "=")
			if err := p.LoadKBFile(name, path); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "loaded %s from %s\n", name, path)
		}
	}

	sess := p.Current() // a recovered log that saw Start resumes its session
	if sess == nil {
		if sess, err = p.Start(); err != nil {
			return err
		}
	}
	if err := p.SyncWAL(); err != nil {
		return err // the recovered/loaded baseline is durable before serving
	}
	res, err := sess.Resume(*budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "resolved: comparisons=%d matches=%d clusters=%d pending=%d\n",
		res.Stats.Comparisons, res.Stats.Matches, len(res.Clusters), sess.Pending())

	srv := server.NewWith(sess, server.Config{MaxBody: *maxBody})
	defer srv.Close()

	// The profiling endpoint binds its own listener, kept off the API
	// address so an operator can expose /status publicly while leaving
	// heap and goroutine dumps on localhost. Registered on a private mux
	// — never the default one — so nothing leaks onto the API handler.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", pln.Addr())
		// Same hardening as the API server (a diagnostics port is still
		// a port), and a graceful Shutdown instead of yanking the
		// listener out from under in-flight profile dumps.
		ps := &http.Server{
			Handler:           pmux,
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go ps.Serve(pln)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ps.Shutdown(sctx)
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr()
	}

	// ReadHeaderTimeout caps how long a connection may dribble its
	// headers (the slowloris hole an untimed Server leaves open);
	// IdleTimeout reclaims keep-alive connections. No ReadTimeout: a
	// legitimate 64 MiB ingest body may stream slowly.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx := context.Background()
	if quit == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		go func() {
			<-quit
			cancel()
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // Serve never returns nil
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	return nil
}

// evaluate reloads the KBs into an id-addressed collection, reads the
// owl:sameAs ground truth, and scores the pipeline's matches.
func evaluate(res *minoaner.Result, kbs kbFlags, truthPath string) error {
	c := kb.NewCollection()
	for _, spec := range kbs {
		name, path, _ := strings.Cut(spec, "=")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		var lerr error
		if strings.HasSuffix(path, ".ttl") || strings.HasSuffix(path, ".turtle") {
			lerr = c.LoadTurtle(name, f)
		} else {
			lerr = c.Load(name, f)
		}
		f.Close()
		if lerr != nil {
			return lerr
		}
	}
	tf, err := os.Open(truthPath)
	if err != nil {
		return err
	}
	defer tf.Close()
	g := kb.NewGroundTruth()
	missing, err := g.ParseSameAs(c, tf)
	if err != nil {
		return err
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d ground-truth links reference unknown descriptions\n", missing)
	}
	var pred []blocking.Pair
	for _, m := range res.Matches {
		a, okA := c.IDOf(m.A.KB, m.A.URI)
		b, okB := c.IDOf(m.B.KB, m.B.URI)
		if !okA || !okB {
			return fmt.Errorf("match references unknown description %s / %s", m.A.URI, m.B.URI)
		}
		pred = append(pred, blocking.MakePair(a, b))
	}
	q := eval.EvaluateMatches(c, g, pred)
	fmt.Println(q)
	return nil
}
