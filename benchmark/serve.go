package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	minoaner "repro"
)

// buildServer compiles cmd/minoaner into the checkout's build
// directory. With a warm build cache it only checks that nothing
// changed.
func (b *bench) buildServer() (string, error) {
	out := filepath.Join(b.root, ".bench_build", "minoaner")
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/minoaner")
	cmd.Dir = filepath.Join(b.root, "benchmark") // the module that requires repro
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/minoaner: %v: %s", err, bytes.TrimSpace(msg))
	}
	return out, nil
}

// served is one running `minoaner serve` process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	readyS float64
	stderr *bytes.Buffer
	logged chan struct{} // closed once stderr is drained
}

// startServer launches `minoaner serve` on an ephemeral port over the
// given KB files and waits until it reports its address: it has then
// loaded, started and fully resolved the seed corpus.
func startServer(ctx context.Context, bin string, kbs []kbFile) (*serverProc, error) {
	args := []string{"serve", "-addr", "127.0.0.1:0"}
	for _, kf := range kbs {
		args = append(args, "-kb", kf.Name+"="+kf.Path)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = childEnv()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, stderr: &bytes.Buffer{}, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "serving on "); ok {
				addr <- rest
			}
		}
		close(addr)
	}()
	base, ok := <-addr
	if !ok {
		cmd.Wait()
		return nil, fmt.Errorf("minoaner serve exited before serving: %s", strings.TrimSpace(s.stderr.String()))
	}
	s.base, s.readyS = base, time.Since(t0).Seconds()
	return s, nil
}

// stop asks the server to shut down cleanly and returns what it used.
func (s *serverProc) stop() (usage, error) {
	rss, err := peakRSSMB(s.cmd.Process.Pid)
	if err != nil {
		return usage{}, err
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	<-s.logged // the stderr pipe must be drained before Wait closes it
	if err := s.cmd.Wait(); err != nil {
		return usage{}, fmt.Errorf("minoaner serve: %v: %s", err, strings.TrimSpace(s.stderr.String()))
	}
	return usage{cpuS: cpuSeconds(s.cmd), rssMB: rss}, nil
}

// oneConn returns a client that keeps to a single connection, so the
// benchmark's load is two connections in all.
func oneConn() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// do sends one request and reports whether it was answered 2xx,
// draining the body so the connection is reused.
func do(c *http.Client, method, url string, body []byte) ([]byte, bool) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, err == nil && resp.StatusCode/100 == 2
}

// serveLoad is what the two connections measured over one server's life.
type serveLoad struct {
	readMS, lateMS             []float64
	writeMS, ingestMS, evictMS []float64
	runS                       float64 // wall time of the writer's replay
	attempted, failed          int
	processed                  int
}

// drive replays waves through connection 2 while connection 1 reads.
//
// Reads are open loop: request k is due at start + k/readRate whatever
// happened to request k−1, its latency runs from that due time (so a
// stall is charged to every read it delays), and how late the
// generator itself sent it is recorded beside. Writes are closed loop:
// the next POST goes out when the previous one's epoch came back.
func drive(base string, waves []wave, readURIs []string, seed int64) (*serveLoad, error) {
	ld := &serveLoad{}
	ctx, stopReads := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := oneConn()
		defer c.CloseIdleConnections()
		rng := rand.New(rand.NewSource(seed))
		start := time.Now()
		for k := 0; ctx.Err() == nil; k++ {
			due := start.Add(time.Duration(k) * time.Second / readRate)
			time.Sleep(time.Until(due))
			late := time.Since(due)
			uri := readURIs[rng.Intn(len(readURIs))]
			_, ok := do(c, http.MethodGet, base+"/resolve?uri="+url.QueryEscape(uri), nil)
			ms := float64(time.Since(due)) / 1e6
			ld.readMS = append(ld.readMS, ms)
			ld.lateMS = append(ld.lateMS, float64(late)/1e6)
			ld.attempted++
			if !ok || ms > readLimitMS {
				ld.failed++
			}
		}
	}()

	c := oneConn()
	defer c.CloseIdleConnections()
	// A refused write ends the replay, and with it the run, with an error.
	var werr error
	t0 := time.Now()
	for _, w := range waves {
		path, payload := "/ingest", any(w.Ingest)
		if len(w.Evict) > 0 {
			path, payload = "/evict", map[string]any{"refs": w.Evict}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			werr = err
			break
		}
		t := time.Now()
		_, ok := do(c, http.MethodPost, base+path, body)
		wrote := float64(time.Since(t)) / 1e6
		if !ok {
			werr = fmt.Errorf("POST %s refused", path)
			break
		}
		if _, ok = do(c, http.MethodPost, base+"/resume", nil); !ok {
			werr = fmt.Errorf("POST /resume refused")
			break
		}
		whole := float64(time.Since(t)) / 1e6
		ld.writeMS = append(ld.writeMS, wrote)
		if len(w.Evict) > 0 {
			ld.evictMS = append(ld.evictMS, whole)
		} else {
			ld.ingestMS = append(ld.ingestMS, whole)
		}
		ld.processed += len(w.Ingest) + len(w.Evict)
	}
	ld.runS = time.Since(t0).Seconds()
	stopReads()
	wg.Wait()
	ld.attempted += 2 * len(ld.writeMS) // each wave is a mutation and a resume
	return ld, werr
}

// serverStatus is the part of GET /status the benchmark reads.
type serverStatus struct {
	Epoch uint64         `json:"epoch"`
	Stats minoaner.Stats `json:"stats"`
}

// iterateServe is one serve_mixed iteration: a fresh server over the
// seed corpus, the mixed load, the final owl:sameAs dump, a clean stop.
func (b *bench) iterateServe(bin string, in *inputs, seed int64) (*iteration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	srv, err := startServer(ctx, bin, in.kbs)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.cmd.Process.Kill()
			<-srv.logged
			srv.cmd.Wait()
		}
	}()
	// Reads go to descriptions that stay live for the whole replay:
	// evict waves only ever remove the oldest of the seed corpus.
	evicted := 0
	for _, w := range in.waves {
		evicted += len(w.Evict)
	}
	var uris []string
	for _, d := range in.corpus.descs[evicted:in.seedN] {
		uris = append(uris, d.URI)
	}
	ld, err := drive(srv.base, in.waves, uris, seed)
	if err != nil {
		return nil, err
	}
	c := oneConn()
	defer c.CloseIdleConnections()
	sameAs, ok := do(c, http.MethodGet, srv.base+"/sameas?format=nt", nil)
	if !ok {
		return nil, fmt.Errorf("GET /sameas failed")
	}
	var st serverStatus
	if body, ok := do(c, http.MethodGet, srv.base+"/status", nil); !ok || json.Unmarshal(body, &st) != nil {
		return nil, fmt.Errorf("GET /status failed")
	}
	use, err := srv.stop()
	stopped = true
	if err != nil {
		return nil, err
	}
	return &iteration{
		readyS: srv.readyS, runS: ld.runS, use: use,
		ingestMS: ld.ingestMS, evictMS: ld.evictMS, writeMS: ld.writeMS,
		readMS: ld.readMS, lateMS: ld.lateMS,
		processed: in.seedN + ld.processed, live: st.Stats.Descriptions,
		attempted: ld.attempted + 1, failed: ld.failed,
		exact: digest(string(sameAs)), sameAs: string(sameAs), epochs: st.Epoch,
	}, nil
}
