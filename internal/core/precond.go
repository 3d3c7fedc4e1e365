package core

import (
	"errors"
	"fmt"

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

	tree *graph.Tree
}

var _ Preconditioner = (*TreePrecond)(nil)

// Name implements Preconditioner.
func (*TreePrecond) Name() string { return "tree" }

// Setup implements Preconditioner.
func (p *TreePrecond) Setup(c Comm) error {
	if p.LowStretch {
		tr := graph.LowStretchTree(c.Graph(), p.Seed)
		if len(tr.Members) != c.Graph().N() {
			return errors.New("core: low-stretch tree does not span")
		}
		p.tree = tr
		return nil
	}
	type globalTreer interface{ GlobalTree() *graph.Tree }
	switch cc := c.(type) {
	case *CongestComm:
		p.tree = cc.GlobalTree()
	case *HybridComm:
		p.tree = cc.local.GlobalTree()
	default:
		if gt, ok := c.(globalTreer); ok {
			p.tree = gt.GlobalTree()
		} else {
			return errors.New("core: comm exposes no global tree")
		}
	}
	return nil
}

// Apply implements Preconditioner: solve the tree Laplacian. With subtree
// sums S(v) of the (mean-centered) residual, the potentials satisfy
// z(child) = z(parent) + S(child)/w(parent edge), z(root) = 0.
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
	pots, err := c.TreeUpDown([]*graph.Tree{p.tree},
		func(_ int, v graph.NodeID) float64 { return rc[v] },
		func(_ int, _ float64) float64 { return 0 },
		func(_ int, _, child graph.NodeID, parentVal, childSubtree float64) float64 {
			w := float64(g.Edge(p.tree.ParentEdge[child]).Weight)
			return parentVal + childSubtree/w
		})
	if err != nil {
		return nil, err
	}
	// The tree spans every node, so the whole dense row is defined.
	z := make([]float64, g.N())
	copy(z, pots[0])
	linalg.CenterMean(z)
	return z, nil
}

// SchwarzPrecond is the overlapping-cluster additive Schwarz preconditioner
// — the component that exercises the congested part-wise aggregation
// primitive: every node belongs to Overlap clusters (p = Overlap in
// Definition 13), and each Apply runs concurrent tree solves over all
// cluster trees at measured congested cost.
type SchwarzPrecond struct {
	TargetSize int    // approximate cluster size (nodes)
	Overlap    int    // p: number of overlapping cluster covers
	Seed       int64  // cover-generation seed
	Method     string // cover generator: "" / "random" | "mpx"

	clusters [][]graph.NodeID
	member   []bool // flat k×n cluster membership: member[t*n+v]
	n        int
	trees    []*graph.Tree
	count    []float64 // per node: #clusters containing it
	invDeg   []float64 // Jacobi smoothing term (see Apply)
}

// inCluster reports whether v belongs to cluster t (flat array probe; the
// hot test of every leaf callback in Apply).
func (p *SchwarzPrecond) inCluster(t int, v graph.NodeID) bool {
	return p.member[t*p.n+v]
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
	p.clusters = nil
	for l := 0; l < p.Overlap; l++ {
		var parts [][]graph.NodeID
		switch p.Method {
		case "", "random":
			parts = shortcut.RandomConnectedPartition(g, k, seedderive.Derive(p.Seed, "cluster-cover", int64(l)))
		case "mpx":
			// Beta tuned so the expected cluster size matches TargetSize.
			beta := 2.0 / float64(p.TargetSize)
			parts = graph.MPXDecomposition(g, graph.MPXOptions{
				Beta: beta, Seed: seedderive.Derive(p.Seed, "cluster-cover-mpx", int64(l)),
			})
		default:
			return fmt.Errorf("core: unknown cluster method %q", p.Method)
		}
		if parts == nil {
			return fmt.Errorf("core: cluster cover %d failed", l)
		}
		p.clusters = append(p.clusters, parts...)
	}
	c.Tracer().Begin("cluster-trees")
	trees, err := c.ClusterTrees(p.clusters)
	c.Tracer().End("cluster-trees")
	if err != nil {
		return err
	}
	p.trees = trees
	p.n = n
	p.member = make([]bool, len(p.clusters)*n)
	p.count = make([]float64, n)
	for i, cl := range p.clusters {
		for _, v := range cl {
			p.member[i*n+v] = true
			p.count[v]++
		}
	}
	for v := range p.count {
		if p.count[v] == 0 { //distlint:allow floateq count holds small exact integers; == 0 means uncovered node
			return fmt.Errorf("core: node %d in no cluster", v)
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
			if p.inCluster(t, v) {
				return r[v]
			}
			return 0
		},
	)
	tr.End("restrict")
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(p.trees))
	for t := range p.trees {
		means[t] = clusterSum[t] / float64(len(p.clusters[t]))
	}
	tr.Begin("sweep")
	pots, err := c.TreeUpDown(p.trees,
		func(t int, v graph.NodeID) float64 {
			if p.inCluster(t, v) {
				return r[v] - means[t]
			}
			return 0
		},
		func(_ int, _ float64) float64 { return 0 },
		func(t int, _, child graph.NodeID, parentVal, childSubtree float64) float64 {
			w := float64(g.Edge(p.trees[t].ParentEdge[child]).Weight)
			return parentVal + childSubtree/w
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
			if p.inCluster(t, v) {
				return pots[t][v]
			}
			return 0
		},
	)
	tr.End("center")
	if err != nil {
		return nil, err
	}
	z := make([]float64, g.N())
	for t, tree := range p.trees {
		mean := potSum[t] / float64(len(p.clusters[t]))
		row := pots[t]
		for _, v := range tree.Members {
			if p.inCluster(t, v) {
				z[v] += (row[v] - mean) / p.count[v]
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
