// Package core implements Minoan ER's primary contribution: the
// progressive entity-resolution loop. A Scheduler orders the candidate
// comparisons produced by blocking and meta-blocking so that the most
// beneficial ones run first under a comparison budget; an update phase
// propagates every confirmed match as neighbor evidence, re-boosting —
// and, crucially, *discovering* — comparisons between the neighbors of
// the matched pair; and pluggable benefit models redefine "beneficial"
// along the three data-quality axes the paper introduces (attribute
// completeness, entity coverage, relationship completeness) in
// contrast to the pair-quantity benefit of progressive relational ER.
//
// A budget of 0 does not drain the queue: it runs until the schedule
// stops paying, once the best queued comparison's priority is below a
// floor read off the benefit model's own priority scale (stopFloor).
// The tail stays queued for a positive budget, which runs past the
// floor.
package core

import (
	"math"

	"repro/internal/match"
)

// BenefitModel defines what the progressive loop tries to maximize.
//
// Gain returns the benefit realized by confirming the match (a, b)
// given the clustering state *before* the merge; the resolver sums
// gains into the benefit curve. Bias returns a number in [0, 1] used
// to steer scheduling toward pairs that would realize benefit under
// this model right now; it is recomputed lazily as the state evolves.
type BenefitModel interface {
	Name() string
	Gain(a, b int, cl *match.Clusters, m *match.Matcher) float64
	Bias(a, b int, cl *match.Clusters, m *match.Matcher) float64
}

// Quantity is the benefit of prior progressive ER work ([1] Altowim et
// al.): every newly resolved pair counts 1. Merging clusters of sizes
// s1 and s2 resolves s1·s2 new pairs.
type Quantity struct{}

// Name implements BenefitModel.
func (Quantity) Name() string { return "quantity" }

// Gain implements BenefitModel.
func (Quantity) Gain(a, b int, cl *match.Clusters, _ *match.Matcher) float64 {
	return float64(cl.Size(a) * cl.Size(b))
}

// Bias implements BenefitModel: quantity is indifferent — pure
// evidence order.
func (Quantity) Bias(a, b int, cl *match.Clusters, _ *match.Matcher) float64 { return 0 }

// AttributeCompleteness targets the number of descriptions resolved:
// every description that leaves the singleton state gains one unit of
// profile completeness (its attributes are merged into a richer
// profile of the real-world entity).
type AttributeCompleteness struct{}

// Name implements BenefitModel.
func (AttributeCompleteness) Name() string { return "attribute-completeness" }

// Gain implements BenefitModel.
func (AttributeCompleteness) Gain(a, b int, cl *match.Clusters, _ *match.Matcher) float64 {
	g := 0.0
	if cl.Size(a) == 1 {
		g++
	}
	if cl.Size(b) == 1 {
		g++
	}
	return g
}

// Bias implements BenefitModel: prefer pairs that pull unresolved
// descriptions in.
func (AttributeCompleteness) Bias(a, b int, cl *match.Clusters, _ *match.Matcher) float64 {
	return AttributeCompleteness{}.Gain(a, b, cl, nil) / 2
}

// EntityCoverage targets the number of distinct real-world entities
// resolved: a merge of two singletons surfaces a new resolved entity
// (+1); extending an existing cluster adds no coverage; merging two
// resolved clusters reduces the count (two apparent entities turn out
// to be one) and scores 0 here — coverage cannot go below what was
// truly there.
type EntityCoverage struct{}

// Name implements BenefitModel.
func (EntityCoverage) Name() string { return "entity-coverage" }

// Gain implements BenefitModel.
func (EntityCoverage) Gain(a, b int, cl *match.Clusters, _ *match.Matcher) float64 {
	if cl.Size(a) == 1 && cl.Size(b) == 1 {
		return 1
	}
	return 0
}

// Bias implements BenefitModel: spread across untouched descriptions.
func (EntityCoverage) Bias(a, b int, cl *match.Clusters, _ *match.Matcher) float64 {
	return EntityCoverage{}.Gain(a, b, cl, nil)
}

// RelationshipCompleteness targets resolved entity graphs: a link
// between two descriptions is resolved once both endpoints belong to
// resolved (non-singleton) clusters. The gain of a match is the number
// of incident links that become resolved by it.
type RelationshipCompleteness struct{}

// Name implements BenefitModel.
func (RelationshipCompleteness) Name() string { return "relationship-completeness" }

// Gain implements BenefitModel.
func (RelationshipCompleteness) Gain(a, b int, cl *match.Clusters, m *match.Matcher) float64 {
	if m == nil {
		return 0
	}
	gain := 0.0
	count := func(id int, becomesResolved bool) {
		if !becomesResolved {
			return
		}
		for _, n := range m.Neighbors(id) {
			// The neighbor endpoint must be resolved already, or become
			// resolved by this same merge.
			if cl.Size(n) > 1 || n == a || n == b || cl.Same(n, a) || cl.Same(n, b) {
				gain++
			}
		}
	}
	count(a, cl.Size(a) == 1)
	count(b, cl.Size(b) == 1)
	return gain
}

// Bias implements BenefitModel: prefer pairs on the frontier of the
// already-resolved region — their links complete graphs immediately.
func (RelationshipCompleteness) Bias(a, b int, cl *match.Clusters, m *match.Matcher) float64 {
	if m == nil {
		return 0
	}
	resolvedNeighbors := func(id int) float64 {
		ns := m.Neighbors(id)
		if len(ns) == 0 {
			return 0
		}
		hit := 0
		for _, n := range ns {
			if cl.Size(n) > 1 {
				hit++
			}
		}
		return float64(hit) / float64(len(ns))
	}
	return (resolvedNeighbors(a) + resolvedNeighbors(b)) / 2
}

// floorBase is the share of the top retained weight below which the
// schedule stops paying: a fresh pair weaker than 5 % of the strongest
// edge, with no bias and no neighbor evidence, is not worth comparing.
const floorBase = 0.05

// stopFloor is the priority at which a draining run stops under model
// m, read off the model's own priority scale: floorBase plus biasWeight
// times the bias the model gives two unresolved descriptions, the
// priority of a fresh pair at floorBase of the top weight. Quantity and
// RelationshipCompleteness give such a pair no bias, so their floor is
// floorBase itself. EntityCoverage's bias is all or nothing (1 for two
// singletons, 0 once either side is resolved), so its full floor would
// cut every cluster extension weaker than 30 % of the top weight; it
// stops at floorBase plus 0.6·biasWeight instead. A model this package
// does not define drains: its floor is -Inf.
func stopFloor(m BenefitModel) float64 {
	switch m.(type) {
	case Quantity, RelationshipCompleteness:
		return floorBase
	case AttributeCompleteness:
		return floorBase + biasWeight
	case EntityCoverage:
		return floorBase + 0.6*biasWeight
	}
	return math.Inf(-1)
}

// Models lists the four benefit models, quantity first (the baseline
// semantics of prior work).
func Models() []BenefitModel {
	return []BenefitModel{Quantity{}, AttributeCompleteness{}, EntityCoverage{}, RelationshipCompleteness{}}
}
