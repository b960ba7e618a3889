// Jumpstart: the use case that motivates cheap matching heuristics in the
// paper's introduction — initializing an exact maximum-matching solver.
// A good warm start leaves few rows free, and the exact engine (a
// Pothen–Fan+ sweep, then push-relabel with global relabeling — the
// engine behind RefineExact) only works on those.
//
//	go run ./examples/jumpstart
package main

import (
	"fmt"
	"time"

	bipartite "repro"
)

func run(g *bipartite.Graph, name string, warm *bipartite.Matching) {
	start := time.Now()
	mt, freeRows := g.MaximumMatchingFrom(warm)
	elapsed := time.Since(start)
	fmt.Printf("%-22s free rows=%8d  matched=%8d  time=%8v\n",
		name, freeRows, mt.Size, elapsed.Round(time.Millisecond))
}

// heuristic runs one warm-start heuristic through the Spec engine.
func heuristic(g *bipartite.Graph, alg bipartite.Algorithm) *bipartite.Matching {
	res, err := g.Match(bipartite.Spec{Algorithm: alg, Seed: 7}, &bipartite.Options{ScalingIterations: 5})
	if err != nil {
		panic(err)
	}
	return res.Matching
}

func main() {
	// A mesh-like instance: augmenting paths get long, so warm starts pay.
	g := bipartite.Grid3D(60, 60, 60, false)
	fmt.Printf("graph: %d vertices per side, %d edges\n\n", g.Rows(), g.Edges())

	// Cold exact solve: every row starts free.
	run(g, "cold exact", nil)

	// Warm starts of increasing quality.
	run(g, "cheap-vertex + exact", heuristic(g, bipartite.AlgCheapVertex))
	run(g, "karp-sipser + exact", heuristic(g, bipartite.AlgKarpSipser))

	one, err := g.OneSidedMatch(&bipartite.Options{ScalingIterations: 5, Seed: 7})
	if err != nil {
		panic(err)
	}
	run(g, "one-sided + exact", one.Matching)

	two, err := g.TwoSidedMatch(&bipartite.Options{ScalingIterations: 5, Seed: 7})
	if err != nil {
		panic(err)
	}
	run(g, "two-sided + exact", two.Matching)

	// The declarative form of the whole pipeline: one Spec asks for a
	// best-of-4 TwoSided ensemble (one shared scaling) refined to maximum
	// cardinality — heuristic jump-start and exact augmentation in a
	// single request, the same request type the batch layer and
	// cmd/matchserve execute.
	start := time.Now()
	res, err := g.Match(bipartite.Spec{
		Algorithm: bipartite.AlgTwoSided,
		Seed:      7,
		Ensemble:  4,
		Refine:    bipartite.RefineExact,
	}, &bipartite.Options{ScalingIterations: 5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nSpec{TwoSided, Ensemble: 4, Refine: Exact}:\n")
	fmt.Printf("  winner seed %d of %d candidates, heuristic %d -> exact %d, time %v\n",
		res.WinnerSeed, res.Candidates, res.HeuristicSize, res.Matching.Size,
		time.Since(start).Round(time.Millisecond))
}
