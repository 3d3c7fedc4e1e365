package shortcut

import (
	"fmt"
	"math"
	"slices"

	"distlap/internal/graph"
)

// Skeleton is the per-graph half of the Steiner-tree construction: a
// low-eccentricity root (graph.ApproxCenter), the BFS tree T from it, and
// each node's member index in T. None of it depends on the partition, so
// one skeleton serves every partition of its graph that a call builds
// shortcuts for — the tree-restricted shortcuts on one fixed skeleton of
// Haeupler–Izumi–Zuzic (arXiv:1607.07553). The root and tree are computed
// on first use. A skeleton also carries the per-member and per-edge
// scratch its builders and certificates reuse from part to part, so it is
// not safe for concurrent use. Its scope is one call: EstimateSQ builds one
// for all its candidate partitions, a part-wise solve one per graph it
// aggregates on. Nothing keeps one in a package variable or a held
// instance.
type Skeleton struct {
	g       *graph.Graph
	tree    *graph.PartTree // nil until first use; rooted at the center
	pos     []int32         // host node → member index in tree
	treeErr error           // non-nil when tree does not span g
	cert    certifier
	steiner steinerScratch
}

// NewSkeleton returns the skeleton of g. It costs nothing until a builder
// needs the tree.
func NewSkeleton(g *graph.Graph) *Skeleton { return &Skeleton{g: g} }

// Graph returns the graph the skeleton belongs to.
func (sk *Skeleton) Graph() *graph.Graph { return sk.g }

// center returns the Steiner tree's root, graph.ApproxCenter of the graph.
func (sk *Skeleton) center() graph.NodeID {
	tree, _, _ := sk.steinerTree() // the tree has its root even when it does not span the graph
	return tree.Members[0]
}

// steinerTree returns the BFS tree from the center and the host-to-member
// index, building both on first use, or an error when the tree does not
// span the graph.
func (sk *Skeleton) steinerTree() (*graph.PartTree, []int32, error) {
	if sk.tree == nil {
		sk.tree = graph.CenterTree(sk.g)
		if len(sk.tree.Members) != sk.g.N() {
			sk.treeErr = fmt.Errorf("shortcut: graph disconnected from root %d", sk.tree.Members[0])
		}
		sk.pos = make([]int32, sk.g.N())
		sk.tree.IndexInto(sk.pos)
	}
	return sk.tree, sk.pos, sk.treeErr
}

// Build returns the better of the trivial and the Steiner-tree shortcut
// for parts on sk's graph (the smaller quality, the trivial one on a tie),
// verified. This portfolio's achieved quality is the repository's
// empirical upper bound on the instance's shortcut quality; the part-wise
// aggregation solvers and the shortcut-quality estimator build with it.
// It validates the parts once, then builds both on sk's tree and scratch.
func Build(sk *Skeleton, parts [][]graph.NodeID) (*Shortcut, error) {
	if err := validateParts(&sk.cert.sub, sk.g, parts); err != nil {
		return nil, err
	}
	trivial, err := buildTrivial(sk, parts)
	if err != nil {
		return nil, fmt.Errorf("trivial: %w", err)
	}
	steiner, err := buildSteiner(sk, parts)
	if err != nil || steiner.Quality() >= trivial.Quality() {
		return trivial, nil
	}
	return steiner, nil
}

// buildTrivial produces the empty shortcut H_i = ∅ for validated parts:
// dilation is the maximum part diameter, congestion 0. Optimal whenever
// parts are already low-diameter (e.g. grid rows), and the baseline the
// Steiner-tree shortcut must beat.
func buildTrivial(sk *Skeleton, parts [][]graph.NodeID) (*Shortcut, error) {
	s := &Shortcut{
		Parts:   parts,
		Extra:   make([][]graph.EdgeID, len(parts)),
		Builder: "trivial",
	}
	if err := sk.cert.certify(sk.g, s); err != nil {
		return nil, err
	}
	return s, nil
}

// buildSteiner is the tree-restricted construction in the spirit of
// Ghaffari–Haeupler, for validated parts: fix a BFS tree T of G rooted at
// a low-eccentricity node (the skeleton); H_i is the Steiner subtree of
// P_i in T (the union of T-paths between members). Dilation is then at
// most 2·height(T) ≤ 2D̃, and the congestion on each tree edge is the
// number of parts whose Steiner subtree crosses it, which the certificate
// measures exactly. It errors when T does not span the graph.
func buildSteiner(sk *Skeleton, parts [][]graph.NodeID) (*Shortcut, error) {
	if _, _, err := sk.steinerTree(); err != nil {
		return nil, err
	}
	s := &Shortcut{
		Parts:   parts,
		Extra:   make([][]graph.EdgeID, len(parts)),
		Builder: "steiner-tree",
	}
	for i, p := range parts {
		s.Extra[i] = sk.steinerSubtreeEdges(p)
	}
	if err := sk.cert.certify(sk.g, s); err != nil {
		return nil, err
	}
	return s, nil
}

// steinerScratch is the Steiner builder's per-member state, indexed by
// member of the skeleton tree and valid where mark equals the current
// part's stamp, so no array is cleared between parts.
type steinerScratch struct {
	stamp  int32
	mark   []int32 // stamp of the last part whose walk reached the member
	term   []int32 // stamp of the last part the member was a terminal of
	kids   []int32 // the member's children in the current part's union of walks
	marked []int32 // members the current part's walks reached
	walked []int32 // members whose parent edge a walk crossed
	below  []graph.NodeID
}

// next starts a new part and returns its stamp, sizing the arrays for k
// members on first use.
func (st *steinerScratch) next(k int) int32 {
	if st.mark == nil || st.stamp == math.MaxInt32 {
		block := make([]int32, 3*k)
		st.mark, st.term, st.kids = block[:k:k], block[k:2*k:2*k], block[2*k:]
		st.stamp = 0
	}
	st.stamp++
	return st.stamp
}

// steinerSubtreeEdges returns the skeleton-tree edges of the minimal
// subtree spanning terminals: every edge on a path from a terminal up to
// the "meeting point" (the highest node at which all terminal-to-root
// paths have merged). Each terminal walks upward until it reaches a member
// an earlier walk marked; the union of walks is a subtree containing the
// root, and only a single chain of it can extend above the meeting node,
// the minimum-depth member that is a terminal or has at least two children
// in the union. Two such members at one depth would have a lower common
// ancestor with two children, so the meeting node is unique. Every walked
// edge strictly above it is dropped. The edges are emitted in host node
// order of their lower endpoint, which feeds BFS tie-breaking downstream.
// A part costs O(its walks) plus the sort of its edges.
func (sk *Skeleton) steinerSubtreeEdges(terminals []graph.NodeID) []graph.EdgeID {
	if len(terminals) <= 1 {
		return nil
	}
	tree, pos, st := sk.tree, sk.pos, &sk.steiner
	stamp := st.next(len(tree.Members))
	marked, walked := st.marked[:0], st.walked[:0]
	for _, t := range terminals {
		i := pos[t]
		st.term[i] = stamp
		for st.mark[i] != stamp {
			st.mark[i] = stamp
			marked = append(marked, i)
			p := tree.Parent[i]
			if p == -1 {
				break
			}
			walked = append(walked, i)
			i = p
		}
	}
	for _, i := range marked {
		st.kids[i] = 0
	}
	for _, i := range walked {
		st.kids[tree.Parent[i]]++
	}
	meet := int32(-1)
	for _, i := range marked {
		if (st.term[i] == stamp || st.kids[i] >= 2) && (meet == -1 || tree.Depth[i] < tree.Depth[meet]) {
			meet = i
		}
	}
	// The lower endpoints of the kept edges, sorted as host nodes.
	below := st.below[:0]
	for _, i := range walked {
		if tree.Depth[i] > tree.Depth[meet] {
			below = append(below, tree.Members[i])
		}
	}
	slices.Sort(below)
	edges := make([]graph.EdgeID, len(below))
	for k, v := range below {
		edges[k] = graph.EdgeID(tree.ParentEdge[pos[v]])
	}
	st.marked, st.walked, st.below = marked, walked, below
	return edges
}
