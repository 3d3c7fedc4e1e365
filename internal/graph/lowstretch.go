package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"

	"distlap/internal/seedderive"
)

// This file implements the low-diameter / low-stretch substrate the
// Laplacian-paradigm solvers precondition with: the Miller–Peng–Xu
// exponential-shift decomposition (MPX) and a hierarchical low-stretch
// spanning tree built from it (an AKPW-style construction). Stretch is the
// classical preconditioning quantity: tree solvers converge in rounds
// governed by the total stretch of the graph over the tree.

// MPXOptions configure the exponential-shift decomposition.
type MPXOptions struct {
	// Beta is the exponential rate: larger beta gives smaller clusters
	// (expected radius O(log n / beta)).
	Beta float64
	// Seed drives the shift draws.
	Seed int64
}

// MPXDecomposition partitions the nodes into connected clusters by the
// Miller–Peng–Xu process: each node v draws a shift δ_v ~ Exp(Beta) and
// joins the node u maximizing δ_u − dist(u, v) (implemented as a shifted
// multi-source Dijkstra over hop distances). Each cluster is connected,
// has radius O(log n / Beta) w.h.p., and every edge is cut with
// probability O(Beta).
func MPXDecomposition(g *Graph, opts MPXOptions) [][]NodeID {
	n := g.N()
	if n == 0 {
		return nil
	}
	beta := opts.Beta
	if beta <= 0 {
		beta = 0.5
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	shift := make([]float64, n)
	for v := range shift {
		shift[v] = rng.ExpFloat64() / beta
	}
	// Shifted Dijkstra: dist(v) = min_u (d(u,v) − δ_u); owner = argmin's u.
	const inf = math.MaxFloat64
	dist := make([]float64, n)
	owner := make([]int, n)
	for v := range dist {
		dist[v] = inf
		owner[v] = -1
	}
	pq := &floatPQ{}
	heap.Init(pq)
	for v := 0; v < n; v++ {
		dist[v] = -shift[v]
		owner[v] = v
		heap.Push(pq, pqItem{node: v, prio: dist[v]})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.prio > dist[it.node] {
			continue
		}
		for _, h := range g.Neighbors(it.node) {
			nd := it.prio + 1 // hop metric
			if nd < dist[h.To] {
				dist[h.To] = nd
				owner[h.To] = owner[it.node]
				heap.Push(pq, pqItem{node: h.To, prio: nd})
			}
		}
	}
	byOwner := make(map[int][]NodeID)
	for v := 0; v < n; v++ {
		byOwner[owner[v]] = append(byOwner[owner[v]], v)
	}
	var clusters [][]NodeID
	for v := 0; v < n; v++ {
		if c, ok := byOwner[v]; ok {
			clusters = append(clusters, c)
		}
	}
	return clusters
}

type pqItem struct {
	node NodeID
	prio float64
}

type floatPQ []pqItem

func (p floatPQ) Len() int            { return len(p) }
func (p floatPQ) Less(a, b int) bool  { return p[a].prio < p[b].prio }
func (p floatPQ) Swap(a, b int)       { p[a], p[b] = p[b], p[a] }
func (p *floatPQ) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *floatPQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// LowStretchTree builds a spanning tree by hierarchical MPX contraction
// (AKPW-style): decompose, keep a BFS tree inside every cluster, contract
// clusters, repeat on the quotient graph with a smaller beta, and map the
// chosen inter-cluster edges back. The result is a spanning tree whose
// average stretch is far below a BFS tree's on path-rich topologies; it is
// measured (never assumed) by AverageStretch.
func LowStretchTree(g *Graph, seed int64) *PartTree {
	n := g.N()
	if n == 0 {
		return NewPartTree(0)
	}
	chosen := make(map[EdgeID]bool)
	// current maps quotient-node -> original representative; membership via
	// union-find over original nodes.
	uf := NewUnionFind(n)
	beta := 0.8
	var sub Induced // one kernel for every cluster of every round's quotient
	for round := 0; uf.Count() > 1 && round < 40; round++ {
		// Build the quotient multigraph on current components.
		repOf := make(map[int]int) // root -> dense quotient id
		var roots []int
		for v := 0; v < n; v++ {
			r := uf.Find(v)
			if _, ok := repOf[r]; !ok {
				repOf[r] = len(roots)
				roots = append(roots, r)
			}
		}
		// Keep one lightest original edge per quotient pair.
		bestEdge := make(map[[2]int]EdgeID)
		for id, e := range g.EdgeList() {
			ru, rv := repOf[uf.Find(e.U)], repOf[uf.Find(e.V)]
			if ru == rv {
				continue
			}
			key := [2]int{min(ru, rv), max(ru, rv)}
			if prev, ok := bestEdge[key]; !ok || e.Weight > g.Edge(prev).Weight {
				// Prefer heavier (lower-resistance) edges for the tree.
				bestEdge[key] = id
			}
		}
		if len(bestEdge) == 0 {
			break // disconnected graph
		}
		// Quotient edge IDs depend on insertion order, and BFS tie-breaks
		// depend on edge IDs — add edges in sorted key order so the whole
		// construction replays identically.
		qkeys := make([][2]int, 0, len(bestEdge))
		for key := range bestEdge {
			qkeys = append(qkeys, key)
		}
		sort.Slice(qkeys, func(i, j int) bool {
			if qkeys[i][0] != qkeys[j][0] {
				return qkeys[i][0] < qkeys[j][0]
			}
			return qkeys[i][1] < qkeys[j][1]
		})
		qedges := make([]Edge, len(qkeys))
		for i, key := range qkeys {
			qedges[i] = Edge{U: key[0], V: key[1], Weight: g.Edge(bestEdge[key]).Weight}
		}
		q := fromValid(len(roots), qedges)
		// MPX-decompose the quotient; join each cluster with a BFS tree of
		// quotient edges, realized by their original representatives.
		clusters := MPXDecomposition(q, MPXOptions{Beta: beta, Seed: seedderive.Derive(seed, "lowstretch-mpx", int64(round))})
		merged := false
		for _, cl := range clusters {
			if len(cl) < 2 {
				continue
			}
			tr := sub.Tree(q, cl, cl[0])
			for i, a := range tr.Members[1:] {
				b := tr.Members[tr.Parent[i+1]]
				key := [2]int{min(a, b), max(a, b)}
				orig := bestEdge[key]
				e := g.Edge(orig)
				if uf.Union(e.U, e.V) {
					chosen[orig] = true
					merged = true
				}
			}
		}
		if !merged {
			// Every cluster was a singleton: halve beta so clusters grow.
			beta /= 2
			if beta < 1e-6 {
				break
			}
		} else {
			beta *= 0.75
		}
	}
	edges := make([]EdgeID, 0, len(chosen))
	for id := range chosen {
		edges = append(edges, id)
	}
	sort.Ints(edges)
	return TreeFromEdges(g, edges, ApproxCenter(g))
}

// AverageStretch returns the mean, over all graph edges, of the weighted
// stretch of the edge through the tree:
//
//	stretch(e) = w(e) · Σ_{f ∈ treePath(u,v)} 1/w(f)
//
// (resistance of the tree detour over the edge's own resistance — the
// quantity that controls tree-preconditioned iteration counts).
func AverageStretch(g *Graph, t *PartTree) float64 {
	if g.M() == 0 {
		return 0
	}
	// pos[v] is v's member index; v is a member when it points back at v.
	pos := make([]int32, g.n)
	t.IndexInto(pos)
	member := func(v NodeID) bool { return int(pos[v]) < len(t.Members) && t.Members[pos[v]] == v }
	total := 0.0
	for _, e := range g.EdgeList() {
		if !member(e.U) || !member(e.V) {
			return math.Inf(1)
		}
		path := PathInTree(t, pos[e.U], pos[e.V])
		r := 0.0
		for i := 0; i+1 < len(path); i++ {
			child := path[i]
			if t.Parent[child] != path[i+1] {
				child = path[i+1]
			}
			r += 1 / float64(g.Edge(int(t.ParentEdge[child])).Weight)
		}
		total += float64(e.Weight) * r
	}
	return total / float64(g.M())
}
