// Electrical flows on a road-like network: a wide grid with a few weighted
// "highway" shortcuts. Computes s-t unit current flows and effective
// resistances through the distributed Laplacian solver — the flagship
// application of the Laplacian paradigm the paper's introduction motivates
// (max-flow via electrical flows, §5).
//
//	go run ./examples/electrical
package main

import (
	"fmt"
	"log"

	"distlap"
)

func main() {
	g, labels, err := buildRoadNetwork()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d segments\n\n", g.N(), g.M())

	pairs := [][2]int{
		{labels["west-end"], labels["east-end"]},
		{labels["west-end"], labels["midtown"]},
		{labels["midtown"], labels["east-end"]},
	}
	names := []string{"west-end → east-end", "west-end → midtown", "midtown → east-end"}

	solver := distlap.NewSolver(distlap.WithSeed(7))
	for i, p := range pairs {
		flow, err := solver.Flow(g, p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		// The highest-current segment is the network's bottleneck for this
		// demand pair.
		maxEdge, maxCur := 0, 0.0
		for id, c := range flow.EdgeCurrent {
			if abs(c) > maxCur {
				maxCur = abs(c)
				maxEdge = id
			}
		}
		e := g.Edge(maxEdge)
		fmt.Printf("%s\n", names[i])
		fmt.Printf("  effective resistance: %.4f\n", flow.Resistance)
		fmt.Printf("  CONGEST rounds:       %d (%d iterations)\n", flow.Rounds, flow.Iterations)
		fmt.Printf("  busiest segment:      %d-%d carrying %.2f of the unit flow\n\n",
			e.U, e.V, maxCur)
	}
}

// buildRoadNetwork returns a 4×32 grid ("city blocks") plus three
// high-capacity highway edges, and a few named landmark nodes.
func buildRoadNetwork() (*distlap.Graph, map[string]int, error) {
	const rows, cols = 4, 32
	id := func(r, c int) int { return r*cols + c }
	var edges []distlap.Edge
	road := func(u, v int, w int64) { edges = append(edges, distlap.Edge{U: u, V: v, Weight: w}) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				road(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				road(id(r, c), id(r+1, c), 1)
			}
		}
	}
	// Highways: heavy-weight (low-resistance) long-range edges.
	road(id(0, 0), id(0, cols/2), 10)
	road(id(0, cols/2), id(0, cols-1), 10)
	road(id(rows-1, 0), id(rows-1, cols-1), 5)
	labels := map[string]int{
		"west-end": id(1, 0),
		"midtown":  id(2, cols/2),
		"east-end": id(1, cols-1),
	}
	g, err := distlap.NewGraph(rows*cols, edges)
	return g, labels, err
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
