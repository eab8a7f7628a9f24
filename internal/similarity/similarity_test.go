package similarity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func set(xs ...string) map[string]struct{} {
	s := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b map[string]struct{}
		want float64
	}{
		{set("a", "b"), set("a", "b"), 1},
		{set("a", "b"), set("c", "d"), 0},
		{set("a", "b", "c"), set("b", "c", "d"), 0.5},
		{set(), set(), 0},
		{set("a"), set(), 0},
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); !approx(got, c.want) {
			t.Errorf("case %d: Jaccard=%v, want %v", i, got, c.want)
		}
	}
}

func TestJaccardSlices(t *testing.T) {
	if got := JaccardSlices([]string{"x", "y", "x"}, []string{"y", "z"}); !approx(got, 1.0/3.0) {
		t.Errorf("JaccardSlices=%v", got)
	}
}

func TestTFIDF(t *testing.T) {
	m := NewTFIDF()
	m.AddDoc([]string{"city", "paris"})
	m.AddDoc([]string{"city", "london"})
	m.AddDoc([]string{"city", "berlin"})
	if m.Docs() != 3 {
		t.Fatalf("Docs=%d", m.Docs())
	}
	// "city" appears in every doc: low IDF. "paris" in one: high IDF.
	if m.IDF("city") >= m.IDF("paris") {
		t.Errorf("IDF(city)=%v should be < IDF(paris)=%v", m.IDF("city"), m.IDF("paris"))
	}
	// Unknown tokens get the max weight.
	if m.IDF("tokyo") < m.IDF("paris") {
		t.Error("unknown token IDF should be >= rare token IDF")
	}
	// Cosine: sharing the rare token scores higher than sharing the common one.
	shareRare := m.Cosine([]string{"paris", "city"}, []string{"paris", "town"})
	shareCommon := m.Cosine([]string{"paris", "city"}, []string{"london", "city"})
	if shareRare <= shareCommon {
		t.Errorf("rare-token overlap %v should beat common-token overlap %v", shareRare, shareCommon)
	}
	if got := m.Cosine([]string{"a"}, nil); got != 0 {
		t.Errorf("Cosine with empty doc = %v", got)
	}
	if got := m.Cosine([]string{"paris"}, []string{"paris"}); !approx(got, 1) {
		t.Errorf("identical docs Cosine=%v, want 1", got)
	}
}

func TestTFIDFEmptyModel(t *testing.T) {
	m := NewTFIDF()
	if m.IDF("x") != 0 {
		t.Error("IDF on empty model should be 0")
	}
}

// Properties of Jaccard: range [0,1], symmetry, and identity on
// non-empty sets.
func TestMeasureProperties(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := toSet(xs), toSet(ys)
		s := Jaccard(a, b)
		if s < 0 || s > 1+1e-12 || !approx(s, Jaccard(b, a)) {
			return false
		}
		return len(a) == 0 || approx(Jaccard(a, a), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCosineVectorsBitIdentical pins the contract the cached-vector
// fast path of the matcher relies on: CosineVectors over Vectorize'd
// documents returns the exact float Cosine returns over the raw token
// multisets — not approximately, bit for bit.
func TestCosineVectorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	doc := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	m := NewTFIDF()
	docs := make([][]string, 200)
	for i := range docs {
		docs[i] = doc(rng.Intn(30)) // includes empty docs
		m.AddDoc(docs[i])
	}
	vecs := make([]Vector, len(docs))
	for i, d := range docs {
		vecs[i] = m.Vectorize(d)
	}
	for trial := 0; trial < 2000; trial++ {
		i, j := rng.Intn(len(docs)), rng.Intn(len(docs))
		want := m.Cosine(docs[i], docs[j])
		got := CosineVectors(vecs[i], vecs[j])
		if want != got {
			t.Fatalf("docs %d,%d: CosineVectors=%v Cosine=%v (diff %g)", i, j, got, want, got-want)
		}
	}
	// Self-similarity of a non-empty doc is 1 up to round-off, and the
	// vectors of the empty model score 0.
	empty := NewTFIDF()
	if got := CosineVectors(empty.Vectorize([]string{"x"}), empty.Vectorize([]string{"x"})); got != 0 {
		t.Errorf("empty-model cosine = %v, want 0", got)
	}
}

// TestVectorizeNorm checks the Norm field against the sum of squared
// weights in sorted-token order.
func TestVectorizeNorm(t *testing.T) {
	m := NewTFIDF()
	m.AddDoc([]string{"a", "b"})
	m.AddDoc([]string{"b", "c"})
	v := m.Vectorize([]string{"b", "a", "b"})
	if len(v.Tokens) != 2 || v.Tokens[0] != "a" || v.Tokens[1] != "b" {
		t.Fatalf("tokens not sorted/deduped: %v", v.Tokens)
	}
	if !sort.StringsAreSorted(v.Tokens) {
		t.Error("tokens unsorted")
	}
	want := v.Weights[0]*v.Weights[0] + v.Weights[1]*v.Weights[1]
	if v.Norm != want {
		t.Errorf("Norm=%v, want %v", v.Norm, want)
	}
	if empty := m.Vectorize(nil); empty.Norm != 0 || len(empty.Tokens) != 0 {
		t.Errorf("empty vectorize = %+v", empty)
	}
}
