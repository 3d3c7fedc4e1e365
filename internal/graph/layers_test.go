package graph

import (
	"sync"
	"testing"
)

// TestLayersComputeWithoutLayout pins which methods of a layered graph
// compute its clique edges and which lay them out: Edge, Other, M, Degree,
// HasEdgeBetween, the searches and Induced never build the layout;
// Neighbors does, once, and concurrent first calls all return it.
func TestLayersComputeWithoutLayout(t *testing.T) {
	g := Layers(Grid(4, 4), 5)
	if want := 5*24 + 16*10; g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if g.Other(id, e.U) != e.V {
			t.Fatalf("Other(%d, %d) != %d", id, e.U, e.V)
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) < 4 || !g.HasEdgeBetween(v, (v+16)%g.N()) {
			t.Fatalf("node %d: degree %d", v, g.Degree(v))
		}
	}
	if !IsConnected(g) || DiameterApprox(g) < 1 {
		t.Fatal("layered grid disconnected")
	}
	CenterTree(g)
	var sub Induced
	if tr := sub.Tree(g, []NodeID{1, 17, 33, 2, 34}, 17); len(tr.Members) != 5 {
		t.Fatalf("tree spans %d of 5 copies", len(tr.Members))
	}
	if g.full.Load() != nil {
		t.Fatal("a computing method laid the cliques out")
	}

	var wg sync.WaitGroup
	first := make([][]Half, 4)
	for i := range first {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first[i] = g.Neighbors(3)
		}()
	}
	wg.Wait()
	for _, h := range first {
		if &h[0] != &first[0][0] {
			t.Fatal("concurrent first Neighbors calls returned different layouts")
		}
	}
	if len(first[0]) != g.Degree(3) {
		t.Fatalf("node 3 lists %d half-edges, degree %d", len(first[0]), g.Degree(3))
	}
}
