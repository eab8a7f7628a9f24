package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	minoaner "repro"
	"repro/internal/rdf"
)

// waitGoroutines polls until at most base goroutines are running or
// the deadline passes, then fails with every goroutine's stack.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, want at most %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestCloseLeavesNoGoroutines: after a workload that ingested, evicted
// and resumed through the writer, Close and the pipeline's Close leave
// no goroutine behind — neither the writer nor the matching stage's
// scoring workers. Requests go straight to the handler, so no network
// goroutine enters the count.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	w := testWorld(t, 23, 60)
	alpha, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	beta1, beta2 := docHalves(t, w, "betaKB")
	cfg := minoaner.Defaults()
	cfg.Workers = 4
	p := minoaner.New(cfg)
	for name, doc := range map[string]string{"alpha": alpha, "betaKB": beta1} {
		if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess)
	h := srv.Handler()
	for _, req := range []struct{ path, ctype, body string }{
		{"/resume?budget=5", "", ""},
		{"/ingest?kb=betaKB", "application/n-triples", beta2},
		{"/resume?budget=5", "", ""},
		{"/evict", "application/json", `{"kb":"alpha"}`},
		{"/resume?budget=5", "", ""},
	} {
		r := httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body))
		if req.ctype != "" {
			r.Header.Set("Content-Type", req.ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d\n%s", req.path, rec.Code, rec.Body)
		}
	}
	srv.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
