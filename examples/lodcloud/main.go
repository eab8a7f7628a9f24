// lodcloud demonstrates pay-as-you-go resolution over a synthetic LOD
// cloud: two densely-populated center KBs plus two sparse periphery
// KBs. It runs the progressive resolver at increasing budgets and
// prints the recall each budget buys — the "higher benefit early"
// claim of the paper — against a random-order baseline.
//
//	go run ./examples/lodcloud
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/metablocking"
	"repro/internal/tokenize"
)

func main() {
	world, err := datagen.Generate(datagen.LODCloud(7, 600))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic LOD cloud: %s\n", world.Collection.Stats())
	fmt.Printf("ground truth: %d cross-KB matching pairs\n\n",
		world.Truth.CrossKBMatchingPairs(world.Collection))

	col := blocking.TokenBlocking(world.Collection, tokenize.Default()).Purge(0).Filter(0.8)
	graph := metablocking.Build(col, metablocking.ECBS, 1)
	edges := graph.Prune(metablocking.WNP, metablocking.PruneOptions{Assignments: col.Assignments()})
	matcher := match.NewMatcher(world.Collection, match.DefaultOptions())
	total := world.Truth.CrossKBMatchingPairs(world.Collection)

	recallOf := func(res *core.Result) float64 {
		q := eval.EvaluateMatches(world.Collection, world.Truth, res.MatchedPairs(matcher))
		return q.Recall
	}

	fmt.Printf("%-10s  %-14s  %-14s\n", "budget", "minoan recall", "random recall")
	for _, frac := range []int{20, 10, 4, 2, 1} {
		budget := len(edges) / frac
		minoan := core.NewResolver(matcher, edges, core.Config{}).RunBudget(budget)
		random := baseline.Execute(matcher,
			baseline.RandomOrder(col.DistinctPairs(), 99), false, budget)
		fmt.Printf("%-10d  %-14.3f  %-14.3f\n", budget, recallOf(minoan), recallOf(random))
	}

	full := core.NewResolver(matcher, edges, core.Config{}).RunBudget(0)
	fmt.Printf("\nfull run: %d comparisons (%d discovered by the update phase), recall %.3f\n",
		full.Comparisons, full.Discovered, recallOf(full))
	_ = total
}
