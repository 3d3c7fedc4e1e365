// Regularized heat diffusion: solve (L + αI) x = demand on a sensor grid —
// an SDD (not pure-Laplacian) system handled through the grounded-
// Laplacian reduction. The regularization α controls how far heat from
// each source spreads before leaking to ground; the solver's rounds are
// measured on the CONGEST simulator.
//
//	go run ./examples/diffusion
package main

import (
	"fmt"
	"log"

	"distlap"
)

func main() {
	const side = 12
	var g *distlap.Graph
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g = f.Make(side * side)
		}
	}

	// Two heat sources.
	demand := make([]float64, g.N())
	demand[side+1] = 1.0       // near the top-left
	demand[g.N()-side-2] = 0.5 // near the bottom-right

	solver := distlap.NewSolver(distlap.WithEps(1e-8), distlap.WithSeed(1))
	for _, alpha := range []int64{1, 4, 16} {
		extra := make([]int64, g.N())
		for i := range extra {
			extra[i] = alpha
		}
		res, err := solver.SolveSDD(g, extra, demand)
		if err != nil {
			log.Fatal(err)
		}
		// How concentrated is the response? Report the mass near each
		// source vs total.
		total, near := 0.0, 0.0
		for v, x := range res.X {
			total += x
			r1, c1 := v/side, v%side
			if (abs(r1-1) <= 2 && abs(c1-1) <= 2) ||
				(abs(r1-(side-2)) <= 2 && abs(c1-(side-2)) <= 2) {
				near += x
			}
		}
		fmt.Printf("alpha=%-3d rounds=%-6d iters=%-3d  mass near sources: %4.1f%%\n",
			alpha, res.Rounds, res.Iterations, 100*near/total)
	}
	fmt.Println("\nlarger alpha → faster leak to ground → the response concentrates")
	fmt.Println("around each source (the regularization length-scale shrinks).")
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
