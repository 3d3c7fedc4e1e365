package core

import (
	"errors"
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/seedderive"
	"distlap/internal/shortcut"
)

// Preconditioner is a distributed preconditioner: Setup may build
// communication structures (charged to the comm), Apply computes z ≈ L⁻¹ r
// using comm primitives only.
type Preconditioner interface {
	Name() string
	Setup(c Comm) error
	Apply(c Comm, r []float64) ([]float64, error)
}

// IdentityPrecond is plain (unpreconditioned) CG.
type IdentityPrecond struct{}

var _ Preconditioner = (*IdentityPrecond)(nil)

// Name implements Preconditioner.
func (*IdentityPrecond) Name() string { return "identity" }

// Setup implements Preconditioner.
func (*IdentityPrecond) Setup(Comm) error { return nil }

// Apply implements Preconditioner.
func (*IdentityPrecond) Apply(_ Comm, r []float64) ([]float64, error) {
	return linalg.Copy(r), nil
}

// JacobiPrecond scales by inverse weighted degrees — knowledge every node
// has locally, so Apply is communication-free.
//
//distlint:allow testonly baseline of BenchmarkAblationPrecond, whose sweep EXPERIMENTS.md quotes
type JacobiPrecond struct {
	invDeg []float64
}

var _ Preconditioner = (*JacobiPrecond)(nil)

// Name implements Preconditioner.
func (*JacobiPrecond) Name() string { return "jacobi" }

// Setup implements Preconditioner.
func (p *JacobiPrecond) Setup(c Comm) error {
	d := linalg.NewLaplacian(c.Graph()).Degrees()
	p.invDeg = make([]float64, len(d))
	for i, v := range d {
		if v > 0 {
			p.invDeg[i] = 1 / v
		}
	}
	return nil
}

// Apply implements Preconditioner.
func (p *JacobiPrecond) Apply(_ Comm, r []float64) ([]float64, error) {
	if len(r) != len(p.invDeg) {
		return nil, linalg.ErrDimension
	}
	z := make([]float64, len(r))
	for i := range r {
		z[i] = r[i] * p.invDeg[i]
	}
	return z, nil
}

// TreePrecond solves the spanning-tree Laplacian L_T z = r exactly with one
// upward subtree-sum sweep and one downward potential sweep (cost Θ(tree
// height) rounds per apply). By default it uses the comm's global BFS
// tree; with LowStretch set it builds an MPX-based low-stretch spanning
// tree instead (the preconditioning tree family of the sequential
// Laplacian-paradigm solvers), trading tree height for stretch.
type TreePrecond struct {
	// LowStretch selects the AKPW/MPX low-stretch tree instead of the BFS
	// tree; Seed drives its randomness.
	LowStretch bool
	Seed       int64

	set *congest.TreeSet // the one tree, compiled once for every Apply
}

var _ Preconditioner = (*TreePrecond)(nil)

// Name implements Preconditioner.
func (*TreePrecond) Name() string { return "tree" }

// Setup implements Preconditioner: pick the tree and compile it once for
// every Apply.
func (p *TreePrecond) Setup(c Comm) error {
	var tree *graph.PartTree
	if p.LowStretch {
		tree = graph.LowStretchTree(c.Graph(), p.Seed)
		if len(tree.Members) != c.Graph().N() {
			return errors.New("core: low-stretch tree does not span")
		}
	} else {
		gc, ok := c.(interface{ GlobalTree() *graph.PartTree })
		if !ok {
			return errors.New("core: comm exposes no global tree")
		}
		tree = gc.GlobalTree()
	}
	set, err := congest.NewTreeSet(c.Graph(), []*graph.PartTree{tree})
	if err != nil {
		return err
	}
	p.set = set
	return nil
}

// Apply implements Preconditioner: solve the tree Laplacian. With subtree
// sums S(v) of the (mean-centered) residual, the potentials satisfy
// z(child) = z(parent) + S(child)/w(parent edge), z(root) = 0; TreeUpDown
// hands down S(child)/w(parent edge).
func (p *TreePrecond) Apply(c Comm, r []float64) ([]float64, error) {
	g := c.Graph()
	if len(r) != g.N() {
		return nil, linalg.ErrDimension
	}
	// The residual is mean-zero (PCG keeps it so), hence exactly in the
	// tree Laplacian's range; recenter defensively anyway.
	rc := linalg.Copy(r)
	linalg.CenterMean(rc)
	c.Tracer().Begin("tree-sweep")
	defer c.Tracer().End("tree-sweep")
	pots, err := c.TreeUpDown(p.set,
		func(_ int, v graph.NodeID) float64 { return rc[v] },
		func(_ int, _ float64) float64 { return 0 },
		func(_ int, _, _ graph.NodeID, parentVal, childPerWeight float64) float64 {
			return parentVal + childPerWeight
		})
	if err != nil {
		return nil, err
	}
	// The tree spans every node, so its one row covers them all.
	z := make([]float64, g.N())
	for i, v := range p.set.Members(0) {
		z[v] = pots[0][i]
	}
	linalg.CenterMean(z)
	return z, nil
}

// SchwarzPrecond is the overlapping-cluster additive Schwarz preconditioner
// — the component that exercises the congested part-wise aggregation
// primitive: every node belongs to Overlap clusters (p = Overlap in
// Definition 13), and each Apply runs concurrent tree solves over all
// cluster trees at measured congested cost.
type SchwarzPrecond struct {
	TargetSize int   // approximate cluster size (nodes)
	Overlap    int   // p: number of overlapping cluster covers
	Seed       int64 // cover-generation seed

	clusters [][]graph.NodeID
	trees    *congest.TreeSet // the clusters' trees, compiled once
	span     []clusterSpan    // per cluster: where its cover and its tree sit
	// slot is the p·n cover index: each cover partitions V, so for cover l
	// and node v, slot[l*n+v] is v's slot in the tree of v's cluster in l.
	slot   []int32
	invDeg []float64 // Jacobi smoothing term (see Apply)
}

// clusterSpan locates one cluster: row is the offset of its cover's row in
// the slot index, and [lo, hi) are its tree's slots.
type clusterSpan struct {
	row    int
	lo, hi int32
}

// memberSlot returns v's slot in tree t if v belongs to cluster t, and -1
// if not (v is then a relay of a naive-mode Steiner tree, or outside the
// tree): two array reads, the hot test of every leaf callback in Apply.
func (p *SchwarzPrecond) memberSlot(t int, v graph.NodeID) int {
	sp := &p.span[t]
	i := p.slot[sp.row+v]
	if i < sp.lo || i >= sp.hi {
		return -1
	}
	return int(i)
}

var _ Preconditioner = (*SchwarzPrecond)(nil)

// NewSchwarzPrecond returns a Schwarz preconditioner with the given
// approximate cluster size and overlap p.
func NewSchwarzPrecond(targetSize, overlap int, seed int64) *SchwarzPrecond {
	return &SchwarzPrecond{TargetSize: targetSize, Overlap: overlap, Seed: seed}
}

// DefaultPrecond returns the standard preconditioner for a graph: the
// overlapping-cluster Schwarz preconditioner with ~√n-sized clusters and
// overlap 2 (the congested-PWA component of the solver).
func DefaultPrecond(g *graph.Graph, seed int64) Preconditioner {
	size := 4
	for (size+1)*(size+1) <= g.N() {
		size++
	}
	return NewSchwarzPrecond(size, 2, seed)
}

// Name implements Preconditioner.
func (p *SchwarzPrecond) Name() string { return "schwarz" }

// Setup implements Preconditioner: build Overlap independent connected
// partitions (covers) and materialize their aggregation trees through the
// comm (whose universal/naive mode decides the tree shapes).
func (p *SchwarzPrecond) Setup(c Comm) error {
	g := c.Graph()
	n := g.N()
	if p.TargetSize < 2 {
		p.TargetSize = 2
	}
	if p.Overlap < 1 {
		p.Overlap = 1
	}
	k := n / p.TargetSize
	if k < 1 {
		k = 1
	}
	p.clusters, p.span = nil, nil
	for l := 0; l < p.Overlap; l++ {
		parts := shortcut.RandomConnectedPartition(g, k, seedderive.Derive(p.Seed, "cluster-cover", int64(l)))
		if parts == nil {
			return fmt.Errorf("core: cluster cover %d failed", l)
		}
		p.clusters = append(p.clusters, parts...)
		for range parts {
			p.span = append(p.span, clusterSpan{row: l * n})
		}
	}
	// Each cover must partition V: mark v's cluster in its cover's row of
	// the index as -(t+1), and check that every node is marked once.
	p.slot = make([]int32, p.Overlap*n)
	for t, cl := range p.clusters {
		row := p.slot[p.span[t].row:][:n]
		for _, v := range cl {
			if row[v] != 0 {
				return fmt.Errorf("core: cluster cover %d is not a partition: node %d lies in two clusters", p.span[t].row/n, v)
			}
			row[v] = -int32(t + 1)
		}
	}
	for i, mark := range p.slot {
		if mark == 0 {
			return fmt.Errorf("core: cluster cover %d is not a partition: node %d lies in no cluster", i/n, i%n)
		}
	}
	c.Tracer().Begin("cluster-trees")
	trees, err := c.ClusterTrees(p.clusters)
	c.Tracer().End("cluster-trees")
	if err != nil {
		return err
	}
	p.trees = trees
	// Replace each mark by v's slot in its cluster's tree. Universal trees
	// hold exactly their cluster; naive Steiner trees add relays, whose
	// marks name another cluster and stay.
	for t := range p.clusters {
		sp := &p.span[t]
		sp.lo, sp.hi = int32(trees.First(t)), int32(trees.First(t+1))
		row := p.slot[sp.row:][:n]
		for i, v := range trees.Members(t) {
			if row[v] == -int32(t+1) {
				row[v] = sp.lo + int32(i)
			}
		}
	}
	d := linalg.NewLaplacian(g).Degrees()
	p.invDeg = make([]float64, n)
	for v, deg := range d {
		if deg > 0 {
			p.invDeg[v] = 1 / deg
		}
	}
	return nil
}

// Clusters exposes the cluster node sets (experiments report p and sizes).
func (p *SchwarzPrecond) Clusters() [][]graph.NodeID { return p.clusters }

// Apply implements Preconditioner: concurrent per-cluster tree solves of
// the residual restricted to each cluster, each solution centered within
// its cluster, averaged per node over its clusters.
func (p *SchwarzPrecond) Apply(c Comm, r []float64) ([]float64, error) {
	g := c.Graph()
	if len(r) != g.N() {
		return nil, linalg.ErrDimension
	}
	tr := c.Tracer()
	// Restrict-and-center the residual per cluster so each local system is
	// solvable: leaf value = r(v) − mean_cluster(r) for members, 0 for
	// relay nodes (naive-mode Steiner trees contain relays). Only the root
	// totals are needed, so this is a TreeTotals — charge-equivalent to the
	// identity-transform TreeUpDown it replaces.
	tr.Begin("restrict")
	clusterSum, err := c.TreeTotals(p.trees,
		func(t int, v graph.NodeID) float64 {
			if p.memberSlot(t, v) >= 0 {
				return r[v]
			}
			return 0
		},
	)
	tr.End("restrict")
	if err != nil {
		return nil, err
	}
	means := make([]float64, p.trees.Len())
	for t := range means {
		means[t] = clusterSum[t] / float64(len(p.clusters[t]))
	}
	tr.Begin("sweep")
	pots, err := c.TreeUpDown(p.trees,
		func(t int, v graph.NodeID) float64 {
			if p.memberSlot(t, v) >= 0 {
				return r[v] - means[t]
			}
			return 0
		},
		func(_ int, _ float64) float64 { return 0 },
		func(_ int, _, _ graph.NodeID, parentVal, childPerWeight float64) float64 {
			return parentVal + childPerWeight
		},
	)
	tr.End("sweep")
	if err != nil {
		return nil, err
	}
	// Center each cluster's potentials over its members. The member
	// potential sums travel through one more (charged) up-and-broadcast
	// sweep so every member learns its cluster's mean. pots stays valid
	// across it: TreeTotals runs on the engine's aggregation pools, not the
	// comm's sweep buffer (the Comm retention contract).
	tr.Begin("center")
	potSum, err := c.TreeTotals(p.trees,
		func(t int, v graph.NodeID) float64 {
			if i := p.memberSlot(t, v); i >= 0 {
				return pots[t][i-int(p.span[t].lo)]
			}
			return 0
		},
	)
	tr.End("center")
	if err != nil {
		return nil, err
	}
	z := make([]float64, g.N())
	count := float64(p.Overlap)
	for t, row := range pots {
		mean := potSum[t] / float64(len(p.clusters[t]))
		first := p.trees.First(t)
		for i, v := range p.trees.Members(t) {
			if p.memberSlot(t, graph.NodeID(v)) == first+i {
				z[v] += (row[i] - mean) / count
			}
		}
	}
	// Jacobi smoothing term: without it the cluster-centered operator can
	// acquire a kernel beyond the constants (e.g. when two covers contain
	// an identical isolated cluster), which stalls PCG. Adding D⁻¹ keeps
	// the preconditioner strictly SPD on the mean-zero subspace; it is
	// communication-free.
	for v := range z {
		z[v] += p.invDeg[v] * r[v]
	}
	linalg.CenterMean(z)
	return z, nil
}
