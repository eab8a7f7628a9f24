package minoaner_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	minoaner "repro"
	"repro/internal/blocking"
	"repro/internal/kb"
	"repro/internal/metablocking"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/tokenize"
)

// gatedCounter counts passes like passCounter and holds the first one
// until gate closes, announcing it on entered.
type gatedCounter struct {
	pipeline.Engine
	passes        int
	entered, gate chan struct{}
}

func (g *gatedCounter) TokenBlocking(src *kb.Collection, opts tokenize.Options) (*blocking.Collection, error) {
	g.passes++
	if g.passes == 1 {
		close(g.entered)
		<-g.gate
	}
	return g.Engine.TokenBlocking(src, opts)
}

// failingPrune fails every pass at its last stage.
type failingPrune struct{ pipeline.Engine }

func (failingPrune) Prune(*metablocking.Graph, metablocking.Pruning, metablocking.PruneOptions) ([]metablocking.Edge, error) {
	return nil, errors.New("injected prune fault")
}

// servedSession starts a session over a small two-KB corpus with its
// engine wrapped, and serves it.
func servedSession(t *testing.T, wrap func(pipeline.Engine) pipeline.Engine) (*minoaner.Session, *server.Server) {
	t.Helper()
	cfg := minoaner.Defaults()
	cfg.Workers = 1
	p := minoaner.New(cfg)
	var seed []minoaner.Description
	for i := range 4 {
		for _, k := range []string{"a", "b"} {
			seed = append(seed, minoaner.Description{KB: k, URI: fmt.Sprintf("http://%s/%d", k, i),
				Attrs: []minoaner.Attribute{{Predicate: "name", Value: fmt.Sprintf("entity number %d", i)}}})
		}
	}
	if err := p.Add(seed); err != nil {
		t.Fatal(err)
	}
	s, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	s.WrapEngine(wrap)
	return s, server.New(s)
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func ingestBody(i int) string {
	return fmt.Sprintf(`[{"kb":"a","uri":"http://a/late%d","attrs":[{"predicate":"name","value":"late entity %d"}]}]`, i, i)
}

// TestServerWaveMakesOnePass: the server's writer folds every mutation
// of a commit wave and makes one pass, at the wave's snapshot — group
// commit with no batching code of its own. The first wave's pass is
// held while more ingests queue behind it, so they commit together:
// the passes equal the waves committed, and fewer waves than ingests.
func TestServerWaveMakesOnePass(t *testing.T) {
	c := &gatedCounter{entered: make(chan struct{}), gate: make(chan struct{})}
	s, srv := servedSession(t, func(e pipeline.Engine) pipeline.Engine {
		c.Engine = e
		return c
	})
	h := srv.Handler()
	const ingests = 8
	codes := make([]int, ingests)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		codes[i] = serve(h, http.MethodPost, "/ingest", ingestBody(i)).Code
	}
	wg.Add(ingests)
	go post(0)
	<-c.entered
	for i := 1; i < ingests; i++ {
		go post(i)
	}
	time.Sleep(100 * time.Millisecond) // let the rest queue behind the held pass
	close(c.gate)
	wg.Wait()
	srv.Close() // the writer has exited: its passes are visible here
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("ingest %d answered %d", i, code)
		}
	}
	waves := int(srv.Epoch()) - 1
	if c.passes != waves || waves >= ingests {
		t.Fatalf("%d ingests committed in %d waves made %d passes, want one pass per wave and fewer waves than ingests",
			ingests, waves, c.passes)
	}
	if got := snapshot(t, s).Stats().Descriptions; got != 8+ingests {
		t.Fatalf("the session holds %d descriptions, want %d", got, 8+ingests)
	}
}

// TestServerPoisonedWave: a pass that fails poisons the session at the
// wave's snapshot. The wave's ingest — folded, so it returned no error
// of its own — answers 500 with ErrDesynced, nothing is published, and
// readers keep the last snapshot; the next mutation is refused at once.
func TestServerPoisonedWave(t *testing.T) {
	_, srv := servedSession(t, func(e pipeline.Engine) pipeline.Engine { return failingPrune{e} })
	defer srv.Close()
	h := srv.Handler()
	rec := serve(h, http.MethodPost, "/ingest", ingestBody(0))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), minoaner.ErrDesynced.Error()) {
		t.Fatalf("ingest in a failing wave answered %d %s, want 500 with ErrDesynced", rec.Code, rec.Body)
	}
	if srv.Epoch() != 1 {
		t.Fatalf("a poisoned wave published epoch %d", srv.Epoch())
	}
	rec = serve(h, http.MethodGet, "/status", "")
	var st struct {
		Epoch uint64         `json:"epoch"`
		Stats minoaner.Stats `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/status answered %d %s (%v)", rec.Code, rec.Body, err)
	}
	if st.Epoch != 1 || st.Stats.Descriptions != 8 {
		t.Fatalf("/status serves epoch %d with %d descriptions, want the last published: epoch 1, 8", st.Epoch, st.Stats.Descriptions)
	}
	rec = serve(h, http.MethodPost, "/evict", `{"refs":[{"kb":"a","uri":"http://a/0"}]}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), minoaner.ErrDesynced.Error()) {
		t.Fatalf("evict after the poison answered %d %s, want 500 with ErrDesynced", rec.Code, rec.Body)
	}
}
