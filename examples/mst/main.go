// Universally-optimal MST: Borůvka phases over part-wise aggregation on a
// weighted planar-style network (the classic client of the low-congestion
// shortcut framework, paper §1). Compares the measured distributed round
// count against the graph diameter and verifies the tree against Kruskal.
//
//	go run ./examples/mst
package main

import (
	"fmt"
	"log"
	"math/rand"

	"distlap"
)

func main() {
	g, err := buildWeightedGrid(12, 12, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d weighted edges\n", g.N(), g.M())

	res, err := distlap.NewSolver().MinimumSpanningTree(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed MST: weight %d, %d edges\n", res.Weight, len(res.Edges))
	fmt.Printf("Borůvka phases:  %d\n", res.Phases)
	fmt.Printf("CONGEST rounds:  %d\n", res.Rounds)

	// Cross-check against the sequential reference.
	wantEdges, wantWeight := sequentialMST(g)
	if res.Weight != wantWeight || len(res.Edges) != wantEdges {
		log.Fatalf("MST mismatch: distributed %d/%d vs sequential %d/%d",
			res.Weight, len(res.Edges), wantWeight, wantEdges)
	}
	fmt.Println("matches the sequential Kruskal reference ✓")
}

// buildWeightedGrid returns a grid with deterministic pseudo-random weights
// in [1, 100].
func buildWeightedGrid(rows, cols int, seed int64) (*distlap.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	id := func(r, c int) int { return r*cols + c }
	var edges []distlap.Edge
	street := func(u, v int) { edges = append(edges, distlap.Edge{U: u, V: v, Weight: 1 + rng.Int63n(100)}) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				street(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				street(id(r, c), id(r+1, c))
			}
		}
	}
	return distlap.NewGraph(rows*cols, edges)
}

// sequentialMST is a tiny Kruskal for verification.
func sequentialMST(g *distlap.Graph) (edges int, weight int64) {
	type edge struct {
		u, v int
		w    int64
	}
	var es []edge
	for _, e := range g.EdgeList() {
		es = append(es, edge{u: e.U, v: e.V, w: e.Weight})
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].w < es[j-1].w; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range es {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			edges++
			weight += e.w
		}
	}
	return edges, weight
}
