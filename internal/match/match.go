// Package match decides whether two entity descriptions refer to the
// same real-world entity. Minoan ER's matcher combines value
// similarity — IDF-weighted cosine over the descriptions' token
// evidence — with neighbor similarity: the fraction of the two
// descriptions' linked neighbors that have already been resolved to
// each other. Neighbor evidence is what recovers "somehow similar"
// periphery pairs whose values share too few tokens to match alone.
package match

import (
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/kb"
	"repro/internal/similarity"
	"repro/internal/tokenize"
)

// Options configures a Matcher.
type Options struct {
	// Tokenize controls token extraction (default tokenize.Default()).
	Tokenize tokenize.Options
	// Threshold is the combined score at or above which a pair
	// matches (default 0.35).
	Threshold float64
	// NeighborWeight scales how much resolved-neighbor evidence adds
	// to the combined score (default 0.50). Strong neighbor evidence
	// can carry a somehow-similar pair across the threshold on its
	// own, but only above the MinValueSim gate: a pair with no value
	// evidence at all can never match, which is what stops transitive
	// match snowballs.
	NeighborWeight float64
	// MinValueSim is the minimum value similarity a pair must have to
	// match regardless of neighbor evidence (default 0.12; generated
	// non-matching pairs rarely exceed 0.2 while matching pairs score
	// 0.2–0.8).
	MinValueSim float64
	// Normalized marks the options as fully specified: zero numeric
	// fields are taken literally instead of being replaced by the
	// documented defaults. DefaultOptions returns normalized options,
	// so the idiomatic way to request a true zero — say NeighborWeight
	// 0 for value-only matching — is to start from DefaultOptions and
	// zero the field. A zero Tokenize still means tokenize.Default():
	// the zero tokenize.Options extracts nothing and is never useful.
	Normalized bool
}

// DefaultOptions returns the pipeline defaults, normalized.
func DefaultOptions() Options {
	return Options{
		Tokenize:       tokenize.Default(),
		Threshold:      0.35,
		NeighborWeight: 0.50,
		MinValueSim:    0.12,
		Normalized:     true,
	}
}

// WithDefaults returns the options with unset fields replaced by the
// documented defaults. Already-normalized options pass through with
// only the Tokenize default applied, so explicit zeros survive.
func (o Options) WithDefaults() Options {
	var zero tokenize.Options
	if o.Tokenize == zero {
		o.Tokenize = tokenize.Default()
	}
	if o.Normalized {
		return o
	}
	if o.Threshold == 0 {
		o.Threshold = 0.35
	}
	if o.NeighborWeight == 0 {
		o.NeighborWeight = 0.50
	}
	if o.MinValueSim == 0 {
		o.MinValueSim = 0.12
	}
	o.Normalized = true
	return o
}

// Matcher scores and decides description pairs over one collection.
// It is read-only after construction: NewMatcher pre-warms the token
// cache and vectorizes every description, so concurrent ValueSim
// calls are race-free — the property the resolver's parallel
// value-similarity scoring relies on.
type Matcher struct {
	col   *kb.Collection
	opts  Options
	tfidf *similarity.TFIDF
	// vecs caches each description's sparse TF-IDF vector, its tokens
	// numbered by lexicographic rank over the live vocabulary, so
	// ValueSim is a merge join over presorted integer ids instead of
	// re-walking raw tokens and rebuilding weight maps per comparison.
	vecs []similarity.Vector
	// neighbors caches each description's combined neighborhood: its
	// out-links (Collection.Neighbors) plus its in-links (descriptions
	// linking to it). Equivalence evidence flows along links in both
	// directions.
	neighbors [][]int
}

// NewMatcher builds a matcher: learns IDF weights over the whole
// collection, numbers the live vocabulary by lexicographic rank, and
// caches sparse TF-IDF vectors over those ids and neighbor lists.
// Evicted descriptions are invisible: they contribute no documents to
// the IDF statistics, no vectors, and no neighbors, so the matcher is
// identical to one built over a collection that never held them.
func NewMatcher(col *kb.Collection, opts Options) *Matcher {
	opts = opts.WithDefaults()
	m := &Matcher{col: col, opts: opts, tfidf: similarity.NewTFIDF()}
	out := make([][]int, col.Len())
	docs := make([][]string, col.Len())
	for id := 0; id < col.Len(); id++ {
		if !col.Alive(id) {
			continue
		}
		docs[id] = col.Tokens(id, opts.Tokenize)
		m.tfidf.AddDoc(docs[id])
		out[id] = col.Neighbors(id)
	}
	// Vectorize after the IDF pass: weights need the whole corpus.
	m.vecs = m.tfidf.VectorizeAll(docs)
	// Combine out- and in-neighbors, deduplicated, out-links first.
	m.neighbors = make([][]int, col.Len())
	inbound := make([][]int, col.Len())
	for id, ns := range out {
		for _, n := range ns {
			inbound[n] = append(inbound[n], id)
		}
	}
	for id := 0; id < col.Len(); id++ {
		seen := make(map[int]struct{}, len(out[id])+len(inbound[id]))
		for _, n := range out[id] {
			seen[n] = struct{}{}
			m.neighbors[id] = append(m.neighbors[id], n)
		}
		for _, n := range inbound[id] {
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			m.neighbors[id] = append(m.neighbors[id], n)
		}
	}
	return m
}

// Collection returns the underlying description collection.
func (m *Matcher) Collection() *kb.Collection { return m.col }

// Options returns the matcher's configuration.
func (m *Matcher) Options() Options { return m.opts }

// Neighbors returns the cached combined (out ∪ in) neighborhood of a
// description.
func (m *Matcher) Neighbors(id int) []int { return m.neighbors[id] }

// ValueSim returns the IDF-weighted cosine similarity of the two
// descriptions' token evidence, in [0, 1]. It reads only the cached
// sparse vectors, so concurrent calls are race-free; the result is
// bit-identical to TFIDF.Cosine over the raw token multisets.
func (m *Matcher) ValueSim(a, b int) float64 {
	return similarity.CosineVectors(m.vecs[a], m.vecs[b])
}

// NeighborSim measures how much the two descriptions' neighborhoods
// mirror each other under the resolved relation: the number of
// smaller-side members with a resolved counterpart on the other side,
// normalized by the geometric mean of the neighborhood sizes (the
// cosine normalization). A single shared hub neighbor is weak
// evidence; matching descriptions mirror most of each other's
// neighborhood. Descriptions without neighbors contribute no
// evidence (0).
func (m *Matcher) NeighborSim(a, b int, resolved *container.UnionFind) float64 {
	na, nb := m.neighbors[a], m.neighbors[b]
	if len(na) == 0 || len(nb) == 0 || resolved == nil {
		return 0
	}
	if len(nb) < len(na) {
		na, nb = nb, na
	}
	hits := 0
	for _, x := range na {
		for _, y := range nb {
			if resolved.Same(x, y) {
				hits++
				break
			}
		}
	}
	s := float64(hits) / math.Sqrt(float64(len(na))*float64(len(nb)))
	if s > 1 {
		return 1
	}
	return s
}

// Score returns the combined match score:
// valueSim + NeighborWeight·neighborSim, capped at 1.
func (m *Matcher) Score(a, b int, resolved *container.UnionFind) float64 {
	s := m.ValueSim(a, b) + m.opts.NeighborWeight*m.NeighborSim(a, b, resolved)
	if s > 1 {
		return 1
	}
	return s
}

// Decide reports whether the pair matches. The combined score must
// clear Threshold and the value similarity alone must clear
// MinValueSim. A structure-assisted match (one whose value similarity
// alone would not clear the threshold) is additionally subject to
// clean–clean partner exclusivity: it is rejected if either side's
// cluster already contains a description from the other side's KB —
// each description has at most one duplicate per other source, so a
// second neighbor-carried partner is almost surely spurious.
func (m *Matcher) Decide(a, b int, cl *Clusters) (score float64, matched bool) {
	return m.DecideValue(a, b, m.ValueSim(a, b), cl)
}

// DecideValue is Decide with the pair's value similarity supplied by
// the caller — the resolver's hook for the score each pair state took
// when it was created. v must equal ValueSim(a, b); then
// DecideValue(a, b, v, cl) is bit-identical to Decide(a, b, cl).
func (m *Matcher) DecideValue(a, b int, v float64, cl *Clusters) (score float64, matched bool) {
	var resolved *container.UnionFind
	if cl != nil {
		resolved = cl.UF()
	}
	score = v + m.opts.NeighborWeight*m.NeighborSim(a, b, resolved)
	if score > 1 {
		score = 1
	}
	if score < m.opts.Threshold || !m.CanMatch(v) {
		return score, false
	}
	if v < m.opts.Threshold && cl != nil && m.col.NumLiveKBs() > 1 {
		if cl.HasKB(a, m.col.KBOf(b)) || cl.HasKB(b, m.col.KBOf(a)) {
			return score, false
		}
	}
	return score, true
}

// CanMatch reports whether a pair of value similarity v can match under
// any neighbor evidence: v must clear MinValueSim, and v plus the most
// neighbor evidence can add (NeighborWeight × a NeighborSim of 1) must
// clear Threshold. It is the one gate rule: DecideValue rejects every
// pair it refuses, and the resolver and the baselines drop such a pair
// without deciding it.
func (m *Matcher) CanMatch(v float64) bool {
	return v >= m.opts.MinValueSim && min(v+max(m.opts.NeighborWeight, 0), 1) >= m.opts.Threshold
}

// Clusters groups descriptions resolved to the same real-world entity.
// When built over a collection, each cluster also tracks which KBs its
// members come from (up to 64 KBs), enabling the clean–clean partner
// exclusivity check in Decide.
type Clusters struct {
	uf   *container.UnionFind
	mask []uint64 // KB bitmask, valid at each set's root; nil if untracked
}

// NewClusters returns singleton clusters over n descriptions, without
// KB tracking (HasKB always reports false).
func NewClusters(n int) *Clusters {
	return &Clusters{uf: container.NewUnionFind(n)}
}

// NewClustersFor returns singleton clusters over the collection's
// descriptions with per-cluster KB tracking (when the collection has
// at most 64 KBs).
func NewClustersFor(col *kb.Collection) *Clusters {
	c := &Clusters{uf: container.NewUnionFind(col.Len())}
	if col.NumKBs() <= 64 {
		c.mask = make([]uint64, col.Len())
		for id := 0; id < col.Len(); id++ {
			c.mask[id] = 1 << uint(col.KBOf(id))
		}
	}
	return c
}

// UF exposes the underlying union-find (read-mostly; shared with the
// scheduler's neighbor-evidence computation).
func (c *Clusters) UF() *container.UnionFind { return c.uf }

// GrowFor extends the clusters to cover descriptions appended to the
// collection since construction: new ids join as singletons, existing
// clusters are untouched. KB tracking follows NewClustersFor's rule —
// it is dropped entirely if the collection has outgrown 64 KBs, so a
// grown Clusters always behaves exactly like one built fresh over the
// same collection with the same merges applied.
func (c *Clusters) GrowFor(col *kb.Collection) {
	old := c.uf.Len()
	c.uf.Grow(col.Len())
	if c.mask == nil {
		return
	}
	if col.NumKBs() > 64 {
		c.mask = nil
		return
	}
	for id := old; id < col.Len(); id++ {
		c.mask = append(c.mask, 1<<uint(col.KBOf(id)))
	}
}

// Merge records that a and b match, returning whether the clusters
// were previously distinct.
func (c *Clusters) Merge(a, b int) bool {
	if c.mask == nil {
		return c.uf.Union(a, b)
	}
	ra, rb := c.uf.Find(a), c.uf.Find(b)
	if !c.uf.Union(a, b) {
		return false
	}
	c.mask[c.uf.Find(a)] = c.mask[ra] | c.mask[rb]
	return true
}

// HasKB reports whether id's cluster contains any description from KB
// index kbIdx. Always false without KB tracking.
func (c *Clusters) HasKB(id, kbIdx int) bool {
	if c.mask == nil {
		return false
	}
	return c.mask[c.uf.Find(id)]&(1<<uint(kbIdx)) != 0
}

// Same reports whether a and b are currently resolved together.
func (c *Clusters) Same(a, b int) bool { return c.uf.Same(a, b) }

// Size returns the size of a's cluster.
func (c *Clusters) Size(a int) int { return c.uf.SetSize(a) }

// Resolved returns every cluster with at least two members.
func (c *Clusters) Resolved() [][]int { return c.uf.Components(2) }

// Pairs expands the clusters into the distinct matched pairs they
// imply (transitive closure), optionally restricted to cross-KB pairs.
func (c *Clusters) Pairs(col *kb.Collection, crossOnly bool) [][2]int {
	var out [][2]int
	for _, members := range c.Resolved() {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if crossOnly && col != nil && !col.CrossKB(members[i], members[j]) {
					continue
				}
				out = append(out, [2]int{members[i], members[j]})
			}
		}
	}
	return out
}

// String summarizes the clustering.
func (c *Clusters) String() string {
	return fmt.Sprintf("clusters: %d sets over %d descriptions", c.uf.Sets(), c.uf.Len())
}
