// HYBRID vs CONGEST: solve the same Laplacian system on a high-diameter
// network in pure CONGEST and in the HYBRID model (CONGEST + node-
// capacitated clique), demonstrating Theorem 3's topology-independence —
// the global aggregations that cost Θ(D) rounds locally cost O(log n) over
// the NCC overlay.
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"

	"distlap"
)

func main() {
	// A ring of 400 sensors: diameter ~200, the worst case for purely
	// local global aggregation.
	const n = 400
	ring := make([]distlap.Edge, n)
	for i := range ring {
		ring[i] = distlap.Edge{U: i, V: (i + 1) % n, Weight: 1}
	}
	g, err := distlap.NewGraph(n, ring)
	if err != nil {
		log.Fatal(err)
	}

	// Heat sources at four points around the ring, sinks uniform.
	b := make([]float64, n)
	for _, src := range []int{0, 100, 200, 300} {
		b[src] += 1
	}
	for i := range b {
		b[i] -= 4.0 / n
	}

	fmt.Printf("ring network: n=%d, diameter ~%d\n\n", n, n/2)
	var rounds []int
	for _, mode := range []distlap.Mode{distlap.ModeUniversal, distlap.ModeHybrid} {
		res, err := distlap.NewSolver(distlap.WithMode(mode), distlap.WithEps(1e-6), distlap.WithSeed(3)).Solve(g, b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  iterations=%-3d  rounds=%-7d  rounds/iter=%.1f\n",
			mode, res.Iterations, res.Rounds,
			float64(res.Rounds)/float64(res.Iterations))
		rounds = append(rounds, res.Rounds)
	}
	fmt.Printf("\nHYBRID speedup: %.1fx — the NCC overlay replaces Θ(D)-round\n",
		float64(rounds[0])/float64(rounds[1]))
	fmt.Println("global sums with O(log n)-round aggregations (Lemma 26, Theorem 3).")
}
