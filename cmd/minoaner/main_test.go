package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	minoaner "repro"
)

const testKBa = `<http://a/x> <http://a/name> "turing award" .
<http://a/y> <http://a/name> "church prize" .
`

const testKBb = `<http://b/x> <http://b/label> "turing award" .
<http://b/y> <http://b/label> "unrelated thing" .
`

func writeFiles(t *testing.T) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.nt")
	b := filepath.Join(dir, "b.nt")
	if err := os.WriteFile(a, []byte(testKBa), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(testKBb), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, a, b
}

func TestRunWritesLinks(t *testing.T) {
	dir, a, b := writeFiles(t)
	out := filepath.Join(dir, "links.nt")
	err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-out", out, "-v"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "owl#sameAs") {
		t.Errorf("output lacks sameAs links:\n%s", data)
	}
	if !strings.Contains(string(data), "<http://a/x>") {
		t.Errorf("turing pair not linked:\n%s", data)
	}
}

func TestRunTruthMode(t *testing.T) {
	dir, a, b := writeFiles(t)
	truth := filepath.Join(dir, "truth.nt")
	err := os.WriteFile(truth,
		[]byte(`<http://a/x> <http://www.w3.org/2002/07/owl#sameAs> <http://b/x> .`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-truth", truth}); err != nil {
		t.Fatalf("run with -truth: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no -kb accepted")
	}
	if err := run([]string{"-kb", "noequals"}); err == nil {
		t.Error("malformed -kb accepted")
	}
	if err := run([]string{"-kb", "a=/nonexistent/path.nt"}); err == nil {
		t.Error("missing file accepted")
	}
	_, a, b := writeFiles(t)
	if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-truth", "/nonexistent"}); err == nil {
		t.Error("missing truth file accepted")
	}
	if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-budget", "-5"}); err == nil {
		t.Error("negative -budget accepted")
	}
}

func TestRunClusteringFlag(t *testing.T) {
	_, a, b := writeFiles(t)
	out := filepath.Join(t.TempDir(), "links.nt")
	for _, mode := range []string{"closure", "center", "unique"} {
		if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-clustering", mode, "-out", out}); err != nil {
			t.Fatalf("clustering %s: %v", mode, err)
		}
	}
	if err := run([]string{"-kb", "a=" + a, "-clustering", "bogus"}); err == nil {
		t.Error("unknown clustering accepted")
	}
}

func TestRunWorkers(t *testing.T) {
	_, a, b := writeFiles(t)
	out := filepath.Join(t.TempDir(), "links.nt")
	if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-workers", "4", "-out", out}); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if err := run([]string{"-kb", "a=" + a, "-kb", "b=" + b, "-workers", "1", "-out", out}); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
}

// TestServeLifecycle drives the serve subcommand in-process: bind an
// ephemeral port, resolve the corpus, serve reads and a mutation over
// real HTTP, then shut down via the quit channel and require a clean
// exit.
func TestServeLifecycle(t *testing.T) {
	_, a, b := writeFiles(t)
	// Reserve an ephemeral port for the pprof listener: bind, read the
	// address, release it for runServe to re-bind. The window between
	// close and re-bind is racy in principle; in practice the kernel
	// does not hand the port out again this fast.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pprofAddr := probe.Addr().String()
	probe.Close()
	ready := make(chan net.Addr, 1)
	quit := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- runServe([]string{"-kb", "a=" + a, "-kb", "b=" + b,
			"-addr", "127.0.0.1:0", "-pprof", pprofAddr}, ready, quit)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("serve exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("serve never became ready")
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Epoch    uint64 `json:"epoch"`
		Clusters int    `json:"clusters"`
		Gauges   struct {
			GraphEdges int `json:"graphEdges"`
			GraphBytes int `json:"graphBytes"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || status.Epoch == 0 {
		t.Fatalf("status %d, epoch %d", resp.StatusCode, status.Epoch)
	}
	if status.Clusters == 0 {
		t.Error("served session resolved no clusters for the turing pair")
	}
	if status.Gauges.GraphEdges == 0 || status.Gauges.GraphBytes == 0 {
		t.Errorf("status reports empty memory gauges: %+v", status.Gauges)
	}

	// The profiling endpoint lives on its own listener, off the API mux.
	resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
	if resp, err = http.Get(base + "/debug/pprof/"); err == nil {
		if resp.StatusCode == http.StatusOK {
			t.Error("pprof leaked onto the API listener")
		}
		resp.Body.Close()
	}

	resp, err = http.Get(base + "/sameas?format=nt")
	if err != nil {
		t.Fatal(err)
	}
	links, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(links), "owl#sameAs") {
		t.Errorf("served sameAs lacks links:\n%s", links)
	}

	// One mutation through the wire, to prove the writer is live.
	resp, err = http.Post(base+"/ingest", "application/json",
		strings.NewReader(`[{"kb":"a","uri":"http://a/z","attrs":[{"predicate":"http://a/name","value":"turing award"}]}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest over the wire: status %d", resp.StatusCode)
	}

	close(quit)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

func TestServeErrors(t *testing.T) {
	if err := runServe([]string{}, nil, nil); err == nil {
		t.Error("serve without -kb accepted")
	}
	if err := runServe([]string{"-kb", "a=/nonexistent/path.nt"}, nil, nil); err == nil {
		t.Error("serve with missing file accepted")
	}
	_, a, _ := writeFiles(t)
	if err := runServe([]string{"-kb", "a=" + a, "-clustering", "bogus"}, nil, nil); err == nil {
		t.Error("serve with unknown clustering accepted")
	}
	if err := runServe([]string{"-kb", "a=" + a, "-budget", "-5"}, nil, nil); err == nil {
		t.Error("serve with a negative -budget accepted")
	}
	if err := runServe([]string{"-kb", "a=" + a, "-addr", "256.0.0.1:bad"}, nil, nil); err == nil {
		t.Error("serve with bad address accepted")
	}
	if err := runServe([]string{"-kb", "a=" + a, "-wal", t.TempDir(), "-wal-fsync", "bogus"}, nil, nil); err == nil {
		t.Error("serve with unknown -wal-fsync accepted")
	}
	// A log that recovered a corpus conflicts with -kb: the operator must
	// pick one source of truth.
	walDir := filepath.Join(t.TempDir(), "wal")
	p, err := minoaner.Open(walDir, minoaner.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddDescription("a", "http://a/seed", map[string]string{"name": "seed"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runServe([]string{"-kb", "a=" + a, "-wal", walDir}, nil, nil); err == nil {
		t.Error("serve with -kb against a recovered log accepted")
	}
}
