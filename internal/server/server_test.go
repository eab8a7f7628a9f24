package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	minoaner "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
	"repro/internal/wal"
)

// testWorld synthesizes a two-KB clean–clean corpus with links, so
// discovery and rechecks fire — the server must serve those faithfully
// too.
func testWorld(t *testing.T, seed int64, n int) *datagen.World {
	t.Helper()
	w, err := datagen.Generate(datagen.Config{
		Seed:        seed,
		NumEntities: n,
		KBs: []datagen.KBConfig{
			{Name: "alpha", Coverage: 1, Profile: datagen.Center()},
			{Name: "betaKB", Coverage: 1, Profile: datagen.Periphery()},
		},
		LinksPerEntity: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// docHalves renders one KB's triples as two N-Triples documents split
// at the subject level, for the streamed half of the differential
// interleavings.
func docHalves(t *testing.T, w *datagen.World, kbName string) (string, string) {
	t.Helper()
	triples := w.Triples(kbName)
	subjects := make(map[string]bool)
	var order []string
	for _, tr := range triples {
		if !subjects[tr.Subject.Value] {
			subjects[tr.Subject.Value] = true
			order = append(order, tr.Subject.Value)
		}
	}
	cut := make(map[string]bool)
	for _, s := range order[:len(order)/2] {
		cut[s] = true
	}
	var first, second []rdf.Triple
	for _, tr := range triples {
		if cut[tr.Subject.Value] {
			first = append(first, tr)
		} else {
			second = append(second, tr)
		}
	}
	a, err := rdf.WriteString(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rdf.WriteString(second)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// startServed loads the initial docs, starts the session, spends an
// initial budget, and wraps everything in a Server + httptest server.
func startServed(t *testing.T, budget int, docs map[string]string) (*Server, *httptest.Server, *minoaner.Pipeline) {
	t.Helper()
	return startServedWith(t, budget, docs, Config{})
}

// startServedWith is startServed with explicit server configuration.
func startServedWith(t *testing.T, budget int, docs map[string]string, cfg Config) (*Server, *httptest.Server, *minoaner.Pipeline) {
	t.Helper()
	p := minoaner.New(minoaner.Defaults())
	for name, doc := range docs {
		if err := p.LoadKB(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resume(budget); err != nil {
		t.Fatal(err)
	}
	srv := NewWith(sess, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, p
}

func get(t *testing.T, ts *httptest.Server, path string, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func post(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T: %v\n%s", v, err, data)
	}
	return v
}

// checkDifferential asserts, with the writer quiescent, that every
// read endpoint serves exactly what the underlying Session answers —
// the served-≡-session half of the correctness story (session ≡
// from-scratch is proven by the streaming suites).
func checkDifferential(t *testing.T, label string, srv *Server, ts *httptest.Server, uris map[string]string) {
	t.Helper()
	sn := srv.sess.Snapshot()
	want := sn.Result()

	// /clusters ≡ Snapshot.Result().Clusters.
	resp, body := get(t, ts, "/clusters", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: /clusters status %d", label, resp.StatusCode)
	}
	cr := decode[clustersResponse](t, body)
	if cr.Epoch != srv.Epoch() {
		t.Errorf("%s: /clusters epoch %d, server at %d", label, cr.Epoch, srv.Epoch())
	}
	wantClusters := want.Clusters
	if wantClusters == nil {
		wantClusters = []minoaner.Cluster{}
	}
	if !reflect.DeepEqual(cr.Clusters, wantClusters) {
		t.Errorf("%s: served clusters differ from session clusters", label)
	}

	// /sameas (N-Triples) ≡ Snapshot.SameAs ≡ Result.SameAs.
	resp, body = get(t, ts, "/sameas?format=nt", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("%s: sameas nt content type %q", label, ct)
	}
	if string(body) != sn.SameAs() {
		t.Errorf("%s: served sameAs differs from session sameAs", label)
	}

	// /sameas (JSON) ≡ Result.Matches.
	_, body = get(t, ts, "/sameas", "application/json")
	sr := decode[sameAsResponse](t, body)
	wantMatches := want.Matches
	if wantMatches == nil {
		wantMatches = []minoaner.Match{}
	}
	if !reflect.DeepEqual(sr.Matches, wantMatches) {
		t.Errorf("%s: served matches differ from session matches", label)
	}

	// /status ≡ Snapshot stats/pending.
	_, body = get(t, ts, "/status", "")
	st := decode[statusResponse](t, body)
	if st.Stats != sn.Stats() {
		t.Errorf("%s: served stats %+v, session %+v", label, st.Stats, sn.Stats())
	}
	if st.Pending != sn.Pending() {
		t.Errorf("%s: served pending %d, session %d", label, st.Pending, sn.Pending())
	}
	if st.BudgetSpent != sn.Stats().Comparisons {
		t.Errorf("%s: budgetSpent %d, comparisons %d", label, st.BudgetSpent, sn.Stats().Comparisons)
	}

	// /resolve, kb-qualified and kb-less, for every URI the corpus ever
	// held — including ones now evicted, which must 404 exactly when the
	// session no longer resolves them.
	for uri, kbName := range uris {
		wantCl, live := sn.Cluster(kbName, uri)
		resp, body = get(t, ts, "/resolve?kb="+kbName+"&uri="+uri, "")
		if !live {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: resolve %s/%s: status %d, want 404", label, kbName, uri, resp.StatusCode)
			}
		} else {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: resolve %s/%s: status %d\n%s", label, kbName, uri, resp.StatusCode, body)
			}
			rr := decode[resolveResponse](t, body)
			if len(rr.Results) != 1 || !reflect.DeepEqual(rr.Results[0].Cluster, wantCl) {
				t.Errorf("%s: resolve %s/%s differs from session cluster", label, kbName, uri)
			}
		}

		wantRefs := sn.Refs(uri)
		resp, body = get(t, ts, "/resolve?uri="+uri, "")
		if len(wantRefs) == 0 {
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: resolve %s: status %d, want 404", label, uri, resp.StatusCode)
			}
			continue
		}
		rr := decode[resolveResponse](t, body)
		if len(rr.Results) != len(wantRefs) {
			t.Errorf("%s: resolve %s: %d results, session has %d refs", label, uri, len(rr.Results), len(wantRefs))
			continue
		}
		for i, ref := range wantRefs {
			wantCl, _ := sn.Cluster(ref.KB, ref.URI)
			if rr.Results[i].Ref != ref || !reflect.DeepEqual(rr.Results[i].Cluster, wantCl) {
				t.Errorf("%s: resolve %s result %d differs from session", label, uri, i)
			}
		}
	}
}

// subjectsOf maps each subject URI of a document to its KB, feeding the
// resolve sweep.
func addSubjects(t *testing.T, uris map[string]string, kbName, doc string) {
	t.Helper()
	triples, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		uris[tr.Subject.Value] = kbName
	}
}

// TestServedEqualsSession is the tentpole differential: across an
// interleaving of N-Triples ingest, JSON ingest, eviction, and resume
// legs, every read endpoint answers exactly what the underlying
// Session answers at that moment.
func TestServedEqualsSession(t *testing.T) {
	w := testWorld(t, 7, 80)
	alpha1, alpha2 := docHalves(t, w, "alpha")
	beta1, beta2 := docHalves(t, w, "betaKB")

	uris := map[string]string{}
	addSubjects(t, uris, "alpha", alpha1)
	addSubjects(t, uris, "alpha", alpha2)
	addSubjects(t, uris, "betaKB", beta1)
	addSubjects(t, uris, "betaKB", beta2)

	srv, ts, _ := startServed(t, 60, map[string]string{"alpha": alpha1, "betaKB": beta1})
	checkDifferential(t, "initial", srv, ts, uris)

	// Stream the second alpha half in as N-Triples.
	resp, body := post(t, ts, "/ingest?kb=alpha", "application/n-triples", []byte(alpha2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nt ingest: status %d\n%s", resp.StatusCode, body)
	}
	checkDifferential(t, "after nt ingest", srv, ts, uris)

	// Spend another budget leg.
	resp, body = post(t, ts, "/resume?budget=40", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d\n%s", resp.StatusCode, body)
	}
	checkDifferential(t, "after resume", srv, ts, uris)

	// Stream the second beta half in as a JSON description batch.
	batch := descriptionsOf(t, "betaKB", beta2)
	enc, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts, "/ingest", "application/json", enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json ingest: status %d\n%s", resp.StatusCode, body)
	}
	mr := decode[mutationResponse](t, body)
	if mr.Ingested != len(batch) {
		t.Errorf("json ingest reported %d, want %d", mr.Ingested, len(batch))
	}
	checkDifferential(t, "after json ingest", srv, ts, uris)

	// Evict a handful of alpha descriptions.
	var victims []minoaner.Ref
	for uri, kbName := range uris {
		if kbName == "alpha" {
			victims = append(victims, minoaner.Ref{KB: "alpha", URI: uri})
			if len(victims) == 5 {
				break
			}
		}
	}
	enc, err = json.Marshal(evictRequest{Refs: victims})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts, "/evict", "application/json", enc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: status %d\n%s", resp.StatusCode, body)
	}
	checkDifferential(t, "after evict", srv, ts, uris)

	// Drain the queue and check the settled state.
	resp, body = post(t, ts, "/resume", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d\n%s", resp.StatusCode, body)
	}
	rr := decode[resumeResponse](t, body)
	if rr.Pending != 0 {
		t.Errorf("drained resume still pending %d", rr.Pending)
	}
	checkDifferential(t, "drained", srv, ts, uris)

	if got := srv.Epoch(); got < 6 {
		t.Errorf("epoch %d after five mutations, want ≥ 6", got)
	}
}

// descriptionsOf converts an N-Triples document into a Description
// batch the JSON ingest endpoint accepts, mirroring the loader's
// attribute/link/type split.
func descriptionsOf(t *testing.T, kbName, doc string) []minoaner.Description {
	t.Helper()
	triples, err := rdf.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	byURI := map[string]*minoaner.Description{}
	var order []string
	for _, tr := range triples {
		uri := tr.Subject.Value
		d := byURI[uri]
		if d == nil {
			d = &minoaner.Description{KB: kbName, URI: uri}
			byURI[uri] = d
			order = append(order, uri)
		}
		switch {
		case tr.Predicate.Value == rdf.OWLSameAs:
			// ground truth, not evidence — the loader skips it too
		case tr.Predicate.Value == rdf.RDFType:
			d.Types = append(d.Types, tr.Object.Value)
		case tr.Object.IsLiteral():
			d.Attrs = append(d.Attrs, minoaner.Attribute{Predicate: tr.Predicate.Value, Value: tr.Object.Value})
		default:
			d.Links = append(d.Links, tr.Object.Value)
		}
	}
	out := make([]minoaner.Description, 0, len(order))
	for _, uri := range order {
		out = append(out, *byURI[uri])
	}
	return out
}

// TestErrorMapping pins the sentinel-error → status-code contract of
// every mutation endpoint.
func TestErrorMapping(t *testing.T) {
	w := testWorld(t, 11, 30)
	doc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, p := startServed(t, 10, map[string]string{"alpha": doc})

	cases := []struct {
		name        string
		method      string
		path, ctype string
		body        string
		status      int
	}{
		{"bad json batch", "POST", "/ingest", "application/json", `{"not":"an array"}`, 400},
		{"empty kb in batch", "POST", "/ingest", "application/json", `[{"kb":"","uri":"x"}]`, 400},
		{"nt without kb", "POST", "/ingest?x=1", "application/n-triples", "<a> <b> <c> .", 400},
		{"nt parse error", "POST", "/ingest?kb=alpha", "application/n-triples", "not ntriples", 400},
		{"evict neither", "POST", "/evict", "application/json", `{}`, 400},
		{"evict both", "POST", "/evict", "application/json", `{"refs":[{"kb":"a","uri":"u"}],"kb":"alpha"}`, 400},
		{"evict unknown ref", "POST", "/evict", "application/json", `{"refs":[{"kb":"alpha","uri":"http://nope"}]}`, 404},
		{"evict unknown kb", "POST", "/evict", "application/json", `{"kb":"ghost"}`, 404},
		{"bad budget", "POST", "/resume?budget=minus", "", "", 400},
		{"negative budget", "POST", "/resume?budget=-3", "", "", 400},
		{"resolve without uri", "GET", "/resolve", "", "", 400},
		{"resolve unknown", "GET", "/resolve?uri=http://nope", "", "", 404},
		{"sameas bad format", "GET", "/sameas?format=xml", "", "", 400},
		{"wrong method", "GET", "/ingest", "", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == "GET" {
				resp, body = get(t, ts, tc.path, "")
			} else {
				resp, body = post(t, ts, tc.path, tc.ctype, []byte(tc.body))
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d\n%s", resp.StatusCode, tc.status, body)
			}
		})
	}

	// A superseded session maps to 409 Conflict: the server's session is
	// no longer the pipeline's current one.
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts, "/ingest", "application/json", []byte(`[{"kb":"alpha","uri":"http://new"}]`))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("superseded session: status %d, want 409\n%s", resp.StatusCode, body)
	}

	// After Close, reads still serve the last snapshot; mutations 503.
	srv.Close()
	resp, _ = get(t, ts, "/status", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("read after close: status %d, want 200", resp.StatusCode)
	}
	resp, body = post(t, ts, "/resume", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mutation after close: status %d, want 503\n%s", resp.StatusCode, body)
	}
}

// TestSameAsNegotiation covers the Accept-header half of content
// negotiation (the format parameter is covered by the differential).
func TestSameAsNegotiation(t *testing.T) {
	w := testWorld(t, 13, 40)
	doc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := rdf.WriteString(w.Triples("betaKB"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := startServed(t, 0, map[string]string{"alpha": doc, "betaKB": doc2})
	sn := srv.sess.Snapshot()
	if len(sn.Result().Matches) == 0 {
		t.Fatal("workload produced no matches; negotiation test needs some")
	}

	for _, accept := range []string{"application/n-triples", "text/plain", "text/plain, */*"} {
		resp, body := get(t, ts, "/sameas", accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
		if string(body) != sn.SameAs() {
			t.Errorf("Accept %q: body differs from SameAs()", accept)
		}
		// The N-Triples body must round-trip through the parser.
		if _, err := rdf.ParseString(string(body)); err != nil {
			t.Errorf("Accept %q: served N-Triples do not re-parse: %v", accept, err)
		}
		if resp.Header.Get(epochHeader) == "" {
			t.Errorf("Accept %q: missing %s header", accept, epochHeader)
		}
	}
	for _, accept := range []string{"", "application/json", "*/*"} {
		resp, _ := get(t, ts, "/sameas", accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
	}
}

// TestWaveBatching proves the writer coalesces queued mutations into
// one commit wave: many concurrent ingests advance the epoch by fewer
// swaps than mutations.
func TestWaveBatching(t *testing.T) {
	w := testWorld(t, 17, 30)
	doc, err := rdf.WriteString(w.Triples("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	srv, ts, _ := startServed(t, 5, map[string]string{"alpha": doc})
	before := srv.Epoch()

	const writers = 24
	done := make(chan uint64, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			body := fmt.Sprintf(`[{"kb":"alpha","uri":"http://batch/%d","attrs":[{"predicate":"p","value":"wave batch %d"}]}]`, i, i)
			resp, data := post(t, ts, "/ingest", "application/json", []byte(body))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %d: status %d\n%s", i, resp.StatusCode, data)
				done <- 0
				return
			}
			done <- decode[mutationResponse](t, data).Epoch
		}(i)
	}
	epochs := make(map[uint64]bool)
	for i := 0; i < writers; i++ {
		if e := <-done; e > 0 {
			epochs[e] = true
		}
	}
	if t.Failed() {
		return
	}
	swaps := srv.Epoch() - before
	if swaps == 0 || swaps > writers {
		t.Fatalf("epoch advanced %d for %d mutations", swaps, writers)
	}
	// Every reply names a real committed epoch, and all 30 descriptions
	// made it in regardless of how the waves fell.
	sn := srv.sess.Snapshot()
	for i := 0; i < writers; i++ {
		uri := fmt.Sprintf("http://batch/%d", i)
		if len(sn.Refs(uri)) != 1 {
			t.Errorf("description %s missing after batched waves", uri)
		}
	}
	t.Logf("%d mutations committed in %d waves", writers, swaps)
}

// TestOversizedBody413 configures a low body cap and checks that a
// request body outgrowing it answers 413 on every mutation endpoint and
// both ingest content types — not the generic 400 the decode error used
// to collapse into. A body under the cap must keep working.
func TestOversizedBody413(t *testing.T) {
	const maxBody int64 = 512
	doc := "<http://x/a> <http://x/p> \"alpha one\" .\n<http://x/b> <http://x/p> \"alpha one\" .\n"
	_, ts, _ := startServedWith(t, 0, map[string]string{"alpha": doc}, Config{MaxBody: maxBody})

	var big bytes.Buffer
	for i := 0; big.Len() <= int(maxBody); i++ {
		fmt.Fprintf(&big, "<http://big/%d> <http://x/p> \"padding padding padding\" .\n", i)
	}
	bigBatch, err := json.Marshal([]minoaner.Description{{
		KB: "alpha", URI: "http://big/json",
		Attrs: []minoaner.Attribute{{Predicate: "p", Value: strings.Repeat("x ", int(maxBody))}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	bigEvict, err := json.Marshal(map[string]any{"kb": strings.Repeat("k", int(maxBody)+1)})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		label, path, ctype string
		body               []byte
	}{
		{"ingest json", "/ingest", "application/json", bigBatch},
		{"ingest ntriples", "/ingest?kb=alpha", "application/n-triples", big.Bytes()},
		{"ingest text/plain", "/ingest?kb=alpha", "text/plain", big.Bytes()},
		{"evict json", "/evict", "application/json", bigEvict},
	} {
		resp, body := post(t, ts, tc.path, tc.ctype, tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413\n%s", tc.label, resp.StatusCode, body)
		}
	}

	// Under the cap everything still flows.
	small, _ := json.Marshal([]minoaner.Description{{KB: "alpha", URI: "http://small/1",
		Attrs: []minoaner.Attribute{{Predicate: "p", Value: "tiny"}}}})
	if resp, body := post(t, ts, "/ingest", "application/json", small); resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest: status %d\n%s", resp.StatusCode, body)
	}
}

// TestDesyncedStatus pins the wire mapping of a poisoned session: 500,
// the operator's cue to restart and recover from the WAL. A description
// too large for any log frame is the client's payload: 413, like a body
// over -max-body.
func TestDesyncedStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{minoaner.ErrDesynced, http.StatusInternalServerError},
		{wal.ErrFrameTooLarge, http.StatusRequestEntityTooLarge},
	} {
		if got := errStatus(fmt.Errorf("wrap: %w", tc.err)); got != tc.want {
			t.Errorf("errStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
