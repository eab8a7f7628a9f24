package similarity

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
// fast path of the matcher relies on: CosineVectors over VectorizeAll's
// documents returns the exact float Cosine returns over the raw token
// multisets — not approximately, bit for bit. Each trial draws a fresh
// random vocabulary: tokens of 0–6 bytes, ASCII and multi-byte runes,
// many sharing prefixes, so byte order, rune order and length order
// disagree and the id ranks must follow the strings' own order.
func TestCosineVectorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "z", "A", "0", "-", "é", "ß", "中", "\u00ff", "\x7f"}
	for trial := 0; trial < 40; trial++ {
		vocab := make([]string, 1+rng.Intn(80))
		for i := range vocab {
			var b strings.Builder
			for n := rng.Intn(7); n > 0; n-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			vocab[i] = b.String()
		}
		m := NewTFIDF()
		docs := make([][]string, 1+rng.Intn(60))
		for i := range docs {
			docs[i] = make([]string, rng.Intn(30)) // includes empty docs
			for j := range docs[i] {
				docs[i][j] = vocab[rng.Intn(len(vocab))]
			}
			m.AddDoc(docs[i])
		}
		vecs := m.VectorizeAll(docs)
		for i := range docs {
			for j := range docs {
				want := m.Cosine(docs[i], docs[j])
				got := CosineVectors(vecs[i], vecs[j])
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("trial %d docs %q, %q: CosineVectors=%v Cosine=%v (diff %g)",
						trial, docs[i], docs[j], got, want, got-want)
				}
			}
		}
	}
	// The vectors of the empty model score 0.
	empty := NewTFIDF().VectorizeAll([][]string{{"x"}, {"x"}})
	if got := CosineVectors(empty[0], empty[1]); got != 0 {
		t.Errorf("empty-model cosine = %v, want 0", got)
	}
}

// TestVectorizeAll checks the numbering and the arena: ids are the
// tokens' lexicographic ranks over the corpus's vocabulary, each
// vector's ids ascend without repeats, its weights are TF-IDF's, Norm is
// the sum of squared weights in that order, and all vectors share one
// pair of arrays.
func TestVectorizeAll(t *testing.T) {
	m := NewTFIDF()
	docs := [][]string{{"b", "a", "b"}, nil, {"c", "ab", "b"}, {}}
	for _, d := range docs {
		m.AddDoc(d)
	}
	vecs := m.VectorizeAll(docs)
	// Vocabulary in lexicographic order: a, ab, b, c.
	if want := []uint32{0, 2}; !slices.Equal(vecs[0].IDs, want) {
		t.Fatalf("ids of %q = %v, want %v", docs[0], vecs[0].IDs, want)
	}
	if want := []uint32{1, 2, 3}; !slices.Equal(vecs[2].IDs, want) {
		t.Fatalf("ids of %q = %v, want %v", docs[2], vecs[2].IDs, want)
	}
	if w := vecs[0].Weights; w[0] != m.IDF("a") || w[1] != (1+math.Log(2))*m.IDF("b") {
		t.Errorf("weights %v: want tf-idf of a (tf 1) and b (tf 2)", w)
	}
	v := vecs[0]
	if want := v.Weights[0]*v.Weights[0] + v.Weights[1]*v.Weights[1]; v.Norm != want {
		t.Errorf("Norm=%v, want %v", v.Norm, want)
	}
	for _, i := range []int{1, 3} {
		if vecs[i].Norm != 0 || len(vecs[i].IDs) != 0 {
			t.Errorf("empty document %d vectorized to %+v", i, vecs[i])
		}
	}
	base := uintptr(unsafe.Pointer(&vecs[0].IDs[0]))
	if uintptr(unsafe.Pointer(&vecs[2].IDs[0]))-base != 2*unsafe.Sizeof(uint32(0)) {
		t.Error("the vectors' ids do not share one array")
	}
}
