// Package cluster turns a scored list of confirmed matches into entity
// clusters. Transitive closure — what a bare union-find gives — is the
// fastest choice but propagates every false positive; the alternatives
// implemented here (center clustering, unique mapping) come from the
// ER clustering literature (surveyed in the authors' book, Christophides
// et al. 2015) and trade a little recall for substantially higher
// precision by refusing to chain weak matches.
//
// All algorithms consume the same input — matches with scores, sorted
// internally by descending score — and emit a match.Clusters value, so
// they drop into the pipeline behind any matcher.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/kb"
	"repro/internal/match"
)

// Match is one scored confirmed pair.
type Match struct {
	A, B  int
	Score float64
}

// Algorithm selects the clustering strategy.
type Algorithm int

const (
	// TransitiveClosure unions every matched pair (the default).
	TransitiveClosure Algorithm = iota
	// Center builds star-shaped clusters: processing matches by
	// descending score, a node becomes a cluster center the first time
	// it appears; later matches only attach unassigned satellites to
	// centers, never chain satellite to satellite.
	Center
	// UniqueMapping enforces the clean–clean constraint greedily: each
	// description accepts at most one partner per other KB, taken in
	// descending score order (stable-marriage-flavored greedy).
	UniqueMapping
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case TransitiveClosure:
		return "transitive-closure"
	case Center:
		return "center"
	case UniqueMapping:
		return "unique-mapping"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Cluster groups the matches with the chosen algorithm over a
// collection of n descriptions. col may be nil except for
// UniqueMapping, which needs KB identities; with nil col UniqueMapping
// degrades to one partner total per description.
func Cluster(alg Algorithm, matches []Match, col *kb.Collection, n int) *match.Clusters {
	ordered := append([]Match(nil), matches...)
	slices.SortStableFunc(ordered, func(a, b Match) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
	var cl *match.Clusters
	if col != nil {
		cl = match.NewClustersFor(col)
	} else {
		cl = match.NewClusters(n)
	}
	switch alg {
	case Center:
		clusterCenter(cl, ordered, n)
	case UniqueMapping:
		clusterUnique(cl, ordered, col)
	default:
		for _, m := range ordered {
			cl.Merge(m.A, m.B)
		}
	}
	return cl
}

func clusterCenter(cl *match.Clusters, ordered []Match, n int) {
	const (
		free = iota
		center
		satellite
	)
	role := make([]uint8, n)
	for _, m := range ordered {
		ra, rb := role[m.A], role[m.B]
		switch {
		case ra == free && rb == free:
			// The first (highest-scoring) appearance wins: A becomes the
			// center, B its satellite.
			role[m.A], role[m.B] = center, satellite
			cl.Merge(m.A, m.B)
		case ra == center && rb == free:
			role[m.B] = satellite
			cl.Merge(m.A, m.B)
		case rb == center && ra == free:
			role[m.A] = satellite
			cl.Merge(m.A, m.B)
			// Satellite–satellite and center–center matches are dropped:
			// that refusal to chain is what blocks false-positive bridges.
		}
	}
}

func clusterUnique(cl *match.Clusters, ordered []Match, col *kb.Collection) {
	type slot struct {
		id int
		kb int
	}
	taken := make(map[slot]bool)
	kbOf := func(id int) int {
		if col == nil {
			return 0
		}
		return col.KBOf(id)
	}
	for _, m := range ordered {
		sa := slot{id: m.A, kb: kbOf(m.B)}
		sb := slot{id: m.B, kb: kbOf(m.A)}
		if taken[sa] || taken[sb] {
			continue
		}
		taken[sa], taken[sb] = true, true
		cl.Merge(m.A, m.B)
	}
}

// StepLike decouples this package from internal/core: anything that
// can report (a, b, score, matched) feeds the clusterers.
type StepLike interface {
	StepInfo() (a, b int, score float64, matched bool)
}

// FromSteps extracts the scored matches from a progressive trace (only
// steps that confirmed a match).
func FromSteps[S StepLike](steps []S) []Match {
	var out []Match
	for _, s := range steps {
		a, b, score, matched := s.StepInfo()
		if matched {
			out = append(out, Match{A: a, B: b, Score: score})
		}
	}
	return out
}
