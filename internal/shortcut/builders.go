package shortcut

import (
	"fmt"
	"slices"

	"distlap/internal/graph"
)

// TrivialBuilder produces the empty shortcut H_i = ∅: dilation is the
// maximum part diameter, congestion 0. Optimal whenever parts are already
// low-diameter (e.g. grid rows), and the baseline every other builder must
// beat.
type TrivialBuilder struct{}

var _ Builder = TrivialBuilder{}

// Name implements Builder.
func (TrivialBuilder) Name() string { return "trivial" }

// Build implements Builder.
func (TrivialBuilder) Build(g *graph.Graph, parts [][]graph.NodeID) (*Shortcut, error) {
	s := &Shortcut{
		Parts:   parts,
		Extra:   make([][]graph.EdgeID, len(parts)),
		Builder: "trivial",
	}
	if err := Verify(g, s); err != nil {
		return nil, err
	}
	return s, nil
}

// SteinerBuilder is the tree-restricted construction in the spirit of
// Ghaffari–Haeupler: fix a BFS tree T of G rooted at a low-eccentricity
// node; H_i is the Steiner subtree of P_i in T (the union of T-paths
// between members). Dilation is then at most 2·height(T) ≤ 2D̃, and the
// congestion on each tree edge is the number of parts whose Steiner subtree
// crosses it, which the certificate measures exactly.
type SteinerBuilder struct{}

var _ Builder = SteinerBuilder{}

// Name implements Builder.
func (SteinerBuilder) Name() string { return "steiner-tree" }

// Build implements Builder.
func (SteinerBuilder) Build(g *graph.Graph, parts [][]graph.NodeID) (*Shortcut, error) {
	if err := ValidateParts(g, parts); err != nil {
		return nil, err
	}
	root := graph.ApproxCenter(g)
	tree := graph.BFSTree(g, root)
	if len(tree.Members) != g.N() {
		return nil, fmt.Errorf("shortcut: graph disconnected from root %d", root)
	}
	pos := make([]int32, g.N())
	tree.IndexInto(pos)
	s := &Shortcut{
		Parts:   parts,
		Extra:   make([][]graph.EdgeID, len(parts)),
		Builder: "steiner-tree",
	}
	for i, p := range parts {
		s.Extra[i] = steinerSubtreeEdges(tree, pos, p)
	}
	if err := Verify(g, s); err != nil {
		return nil, err
	}
	return s, nil
}

// steinerSubtreeEdges returns the tree edges of the minimal subtree of tree
// spanning terminals: every edge on a path from a terminal up to the
// "meeting point" (the highest node at which all terminal-to-root paths have
// merged). Implemented by walking each terminal upward, stopping when
// reaching an already-marked member; the union of walked edges, pruned so
// the subtree does not extend above the shallowest meeting node, is the
// Steiner subtree. pos maps each terminal to its member index in tree.
func steinerSubtreeEdges(tree *graph.PartTree, pos []int32, terminals []graph.NodeID) []graph.EdgeID {
	if len(terminals) <= 1 {
		return nil
	}
	// Mark upward paths, by member index.
	marked := make(map[int32]bool, len(terminals)*2)
	var walked []int32 // members whose parent edge a walk crossed
	for _, t := range terminals {
		i := pos[t]
		for !marked[i] {
			marked[i] = true
			p := tree.Parent[i]
			if p == -1 {
				break
			}
			walked = append(walked, i)
			i = p
		}
	}
	// The union of upward paths forms a subtree rooted at the highest
	// marked node; prune marked nodes of degree 1 (within the subtree)
	// that are not terminals, from the top down, to cut the surplus path
	// above the meeting point.
	isTerminal := make(map[int32]bool, len(terminals))
	for _, t := range terminals {
		isTerminal[pos[t]] = true
	}
	// Walked and marked members in host node order: both the meeting-node
	// scan and the emitted edge list must not depend on map iteration order
	// (edge-list order feeds BFS tie-breaking downstream).
	byNode := func(a, b int32) int { return tree.Members[a] - tree.Members[b] }
	slices.SortFunc(walked, byNode)
	childCount := make(map[int32]int)
	for _, i := range walked {
		if marked[tree.Parent[i]] {
			childCount[tree.Parent[i]]++
		}
	}
	// The union of upward walks is a subtree containing the root; only a
	// single chain can extend above the true meeting point. The meeting
	// node is the minimum-depth marked node that is a terminal or has at
	// least two marked children; every marked edge strictly above it is
	// surplus and dropped.
	all := make([]int32, 0, len(marked))
	for i := range marked {
		all = append(all, i)
	}
	slices.SortFunc(all, byNode)
	meet := int32(-1)
	for _, i := range all {
		if isTerminal[i] || childCount[i] >= 2 {
			if meet == -1 || tree.Depth[i] < tree.Depth[meet] {
				meet = i
			}
		}
	}
	var edges []graph.EdgeID
	for _, i := range walked {
		if meet != -1 && tree.Depth[i] <= tree.Depth[meet] {
			continue // edge from i to its parent lies above the meeting node
		}
		edges = append(edges, graph.EdgeID(tree.ParentEdge[i]))
	}
	return edges
}

// PortfolioBuilder runs every inner builder and keeps the best (smallest
// quality) verified shortcut. Its achieved quality is the repository's
// empirical upper bound on the instance's shortcut quality.
type PortfolioBuilder struct {
	Builders []Builder
}

var _ Builder = PortfolioBuilder{}

// DefaultPortfolio returns the fast portfolio (trivial + Steiner-tree),
// used on the hot path of the part-wise aggregation solvers.
func DefaultPortfolio() PortfolioBuilder {
	return PortfolioBuilder{Builders: []Builder{TrivialBuilder{}, SteinerBuilder{}}}
}

// WidePortfolio additionally runs the multi-scale region construction —
// more construction work for a tighter quality upper bound; used by the
// shortcut-quality estimator.
func WidePortfolio() PortfolioBuilder {
	return PortfolioBuilder{Builders: []Builder{
		TrivialBuilder{}, SteinerBuilder{}, RegionBuilder{},
	}}
}

// Name implements Builder.
func (PortfolioBuilder) Name() string { return "portfolio" }

// Build implements Builder.
func (b PortfolioBuilder) Build(g *graph.Graph, parts [][]graph.NodeID) (*Shortcut, error) {
	var best *Shortcut
	var firstErr error
	for _, inner := range b.Builders {
		s, err := inner.Build(g, parts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", inner.Name(), err)
			}
			continue
		}
		if best == nil || s.Quality() < best.Quality() {
			best = s
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}
