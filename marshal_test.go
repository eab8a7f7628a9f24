package minoaner_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	minoaner "repro"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden JSON fixtures")

// The golden fixtures under testdata/golden pin the JSON wire format
// of every public type the HTTP API serves. Renaming a field, dropping
// a tag, or changing an omitempty breaks a fixture — which is the
// point: clients parse these bytes, so a change here is a breaking API
// change and must be deliberate (run with -update and review the
// diff).

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixture)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("wire format of %s changed:\n--- fixture\n%s--- got\n%s", name, want, buf.Bytes())
	}
}

func TestWireFormatGolden(t *testing.T) {
	refA := minoaner.Ref{KB: "dbp", URI: "http://dbpedia.org/resource/Heraklion"}
	refB := minoaner.Ref{KB: "geo", URI: "http://sws.geonames.org/261745/"}

	checkGolden(t, "ref.json", refA)
	checkGolden(t, "match.json", minoaner.Match{
		A: refA, B: refB, Score: 0.8125, Discovered: true, Rechecked: true,
	})
	// The zero booleans are omitted: a plain match is just a, b, score.
	checkGolden(t, "match_plain.json", minoaner.Match{A: refA, B: refB, Score: 0.5})
	checkGolden(t, "cluster.json", minoaner.Cluster{refA, refB})
	checkGolden(t, "stats.json", minoaner.Stats{
		Descriptions: 7, KBs: 2, BruteForce: 1, Blocks: 5, BlockCandidates: 9,
		PrunedEdges: 6, Comparisons: 4, DiscoveredCmps: 2, Gated: 8, Matches: 3,
	})
	checkGolden(t, "result.json", minoaner.Result{
		Matches:  []minoaner.Match{{A: refA, B: refB, Score: 0.75}},
		Clusters: []minoaner.Cluster{{refA, refB}},
		Stats:    minoaner.Stats{Descriptions: 2, KBs: 2, Comparisons: 1, Matches: 1},
	})
	checkGolden(t, "description.json", minoaner.Description{
		KB:    "dbp",
		URI:   "http://dbpedia.org/resource/Heraklion",
		Types: []string{"http://dbpedia.org/ontology/City"},
		Attrs: []minoaner.Attribute{
			{Predicate: "http://xmlns.com/foaf/0.1/name", Value: "Heraklion"},
		},
		Links: []string{"http://dbpedia.org/resource/Crete"},
	})
	// The sparse description drops its empty evidence lists entirely.
	checkGolden(t, "description_sparse.json", minoaner.Description{
		KB: "dbp", URI: "http://dbpedia.org/resource/Heraklion",
	})
	checkGolden(t, "timings.json", minoaner.Timings{
		FrontEnd: 7_000, Resolve: 40_000,
		Schedule: 10_000, Match: 20_000, Update: 3_000,
	})
}

// TestDescriptionRoundTrip proves the ingest direction of the wire
// format: a Description survives marshal → unmarshal unchanged, so
// what a client POSTs is what the session ingests.
func TestDescriptionRoundTrip(t *testing.T) {
	in := minoaner.Description{
		KB:    "dbp",
		URI:   "http://dbpedia.org/resource/Knossos",
		Types: []string{"http://dbpedia.org/ontology/Place"},
		Attrs: []minoaner.Attribute{{Predicate: "p", Value: "v"}},
		Links: []string{"http://dbpedia.org/resource/Crete"},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out minoaner.Description
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the description:\n in %+v\nout %+v", in, out)
	}
}
