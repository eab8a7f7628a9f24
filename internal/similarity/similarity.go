// Package similarity provides the token-set similarity measures used by
// entity matching and blocking: Jaccard and cosine with TF-IDF
// weighting. All measures return values in [0, 1], where 1 means
// identical.
package similarity

import (
	"math"
	"slices"
	"strings"
)

// Jaccard returns |a∩b| / |a∪b| over two token sets.
// Two empty sets are defined to have similarity 0 (no evidence).
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := intersectionSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func intersectionSize(a, b map[string]struct{}) int {
	if len(b) < len(a) {
		a, b = b, a
	}
	n := 0
	for t := range a {
		if _, ok := b[t]; ok {
			n++
		}
	}
	return n
}

// JaccardSlices computes Jaccard over token slices (treated as sets).
func JaccardSlices(a, b []string) float64 {
	return Jaccard(toSet(a), toSet(b))
}

func toSet(xs []string) map[string]struct{} {
	s := make(map[string]struct{}, len(xs))
	for _, x := range xs {
		s[x] = struct{}{}
	}
	return s
}

// TFIDF holds inverse-document-frequency weights learned from a corpus
// of token multisets. Cosine similarity weighted by IDF discounts
// tokens that appear everywhere (e.g. "city") and rewards rare,
// discriminative ones.
type TFIDF struct {
	df   map[string]int
	docs int
}

// NewTFIDF returns an empty model.
func NewTFIDF() *TFIDF { return &TFIDF{df: make(map[string]int)} }

// AddDoc folds one document's distinct tokens into the document
// frequency table.
func (m *TFIDF) AddDoc(tokens []string) {
	m.docs++
	seen := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		m.df[t]++
	}
}

// Docs returns how many documents the model has seen.
func (m *TFIDF) Docs() int { return m.docs }

// IDF returns the smoothed inverse document frequency of a token:
// ln(1 + N/df). Unknown tokens get the maximum weight ln(1+N).
func (m *TFIDF) IDF(token string) float64 {
	if m.docs == 0 {
		return 0
	}
	df := m.df[token]
	if df == 0 {
		df = 1
	}
	return math.Log(1 + float64(m.docs)/float64(df))
}

// Cosine returns the IDF-weighted cosine similarity of two token sets.
// Accumulation runs in sorted-token order, so the result is
// bit-for-bit deterministic.
func (m *TFIDF) Cosine(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	wa := m.weights(a)
	wb := m.weights(b)
	var dot, na, nb float64
	lookup := make(map[string]float64, len(wb))
	for _, w := range wb {
		nb += w.weight * w.weight
		lookup[w.token] = w.weight
	}
	for _, w := range wa {
		na += w.weight * w.weight
		if w2, ok := lookup[w.token]; ok {
			dot += w.weight * w2
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Vector is a sparse TF-IDF document vector: the ids of the document's
// distinct tokens in ascending order with their TF-IDF weights, plus
// the precomputed squared norm. An id is the token's rank in the
// lexicographic order of the vocabulary the vector was built over
// (VectorizeAll), so ascending ids are ascending tokens. Vectorizing a
// corpus once and scoring with CosineVectors avoids re-walking raw
// tokens and rebuilding weight maps on every comparison — the dominant
// cost of the matching stage — and its merge join compares integers,
// not strings. The result is bit-identical to calling Cosine on the raw
// token multisets, because both accumulate norms and dot products in
// ascending token order. A Vector is immutable after construction and
// safe for concurrent reads.
type Vector struct {
	IDs     []uint32
	Weights []float64
	// Norm is Σ weight², accumulated in ascending token order — the
	// exact float sum Cosine computes internally.
	Norm float64
}

// VectorizeAll builds the sparse TF-IDF vectors of a corpus of token
// multisets under the model's current IDF weights, one per document (a
// nil or empty document gets the zero Vector). It numbers the corpus's
// vocabulary once, by lexicographic rank, and the ids and weights of
// all the vectors share one pair of flat arrays. Only vectors built by
// one call share a numbering: CosineVectors must not mix calls.
func (m *TFIDF) VectorizeAll(docs [][]string) []Vector {
	// Number each distinct token in first-seen order, keeping every
	// occurrence's number in one flat array.
	first := make(map[string]uint32)
	var vocab []string
	total := 0
	for _, doc := range docs {
		total += len(doc)
	}
	flat := make([]uint32, 0, total)
	for _, doc := range docs {
		for _, t := range doc {
			id, ok := first[t]
			if !ok {
				id = uint32(len(vocab))
				first[t] = id
				vocab = append(vocab, t)
			}
			flat = append(flat, id)
		}
	}
	// Renumber by lexicographic rank; weigh each token once.
	byRank := make([]uint32, len(vocab))
	for i := range byRank {
		byRank[i] = uint32(i)
	}
	slices.SortFunc(byRank, func(a, b uint32) int { return strings.Compare(vocab[a], vocab[b]) })
	rank := make([]uint32, len(vocab))
	idf := make([]float64, len(vocab))
	for r, id := range byRank {
		rank[id] = uint32(r)
		idf[r] = m.IDF(vocab[id])
	}
	// Each document's occurrences, sorted by rank, run-length encode to
	// its distinct ids and term frequencies. The arena holds at most one
	// entry per occurrence, so appending never moves it.
	ids := make([]uint32, 0, total)
	weights := make([]float64, 0, total)
	out := make([]Vector, len(docs))
	off := 0
	for d, doc := range docs {
		occ := flat[off : off+len(doc)]
		off += len(doc)
		for i, id := range occ {
			occ[i] = rank[id]
		}
		slices.Sort(occ)
		lo := len(ids)
		var norm float64
		for i := 0; i < len(occ); {
			j := i + 1
			for j < len(occ) && occ[j] == occ[i] {
				j++
			}
			w := (1 + math.Log(float64(j-i))) * idf[occ[i]]
			ids = append(ids, occ[i])
			weights = append(weights, w)
			norm += w * w
			i = j
		}
		if hi := len(ids); hi > lo {
			out[d] = Vector{IDs: ids[lo:hi:hi], Weights: weights[lo:hi:hi], Norm: norm}
		}
	}
	return out
}

// CosineVectors returns the cosine similarity of two vectors built by
// one VectorizeAll call, bit-identical to Cosine over the raw token
// multisets the vectors were built from (under the same model): the
// merge join over ascending ids visits common tokens in exactly the
// order Cosine's sorted-token accumulation does.
func CosineVectors(a, b Vector) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		x, y := a.IDs[i], b.IDs[j]
		switch {
		case x == y:
			dot += a.Weights[i] * b.Weights[j]
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return dot / (math.Sqrt(a.Norm) * math.Sqrt(b.Norm))
}

type tokenWeight struct {
	token  string
	weight float64
}

// weights returns TF-IDF weights in sorted token order.
func (m *TFIDF) weights(tokens []string) []tokenWeight {
	tf := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	out := make([]tokenWeight, 0, len(tf))
	for t, f := range tf {
		out = append(out, tokenWeight{token: t, weight: (1 + math.Log(f)) * m.IDF(t)})
	}
	slices.SortFunc(out, func(a, b tokenWeight) int { return strings.Compare(a.token, b.token) })
	return out
}
