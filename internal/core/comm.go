// Package core implements the paper's primary contribution: a distributed
// Laplacian solver whose every communication step is expressed through the
// (congested) part-wise aggregation primitive, so that its round complexity
// is (#iterations) × Q(p) exactly as in Assumption 27 / Theorem 28.
//
// The solver is a distributed preconditioned conjugate-gradient iteration
// (see DESIGN.md §1 for why this parameterization substitutes for the full
// FOCS'21 recursion): per iteration it performs one local matrix-vector
// exchange, O(1) batched global inner products, and — under the Schwarz
// preconditioner — one congested concurrent tree-sweep over overlapping
// clusters. Swapping the Comm implementation yields the paper's three
// models:
//
//   - CongestComm (universal mode) — shortcuts/local trees, Theorem 2;
//   - CongestComm (naive mode) — everything over one global BFS tree, the
//     existentially-optimal baseline in the style of [18];
//   - HybridComm — local edges for MatVec, NCC for global aggregation,
//     Theorem 3.
//
// Determinism obligations: iteration order, reduction order and
// floating-point evaluation are fixed, all communication flows through the
// Comm (whose round counts come from the engines underneath), and child
// seeds for randomized phases (cluster covers, MPX shifts) are derived via
// seedderive — so solver trajectories and measured rounds are
// bit-reproducible from (graph, b, options).
package core

import (
	"errors"
	"fmt"
	"sort"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/ncc"
	"distlap/internal/partwise"
	"distlap/internal/simtrace"
)

// Comm abstracts the communication substrate the distributed solver runs
// on. All methods physically move data through the underlying engines and
// accumulate measured rounds.
type Comm interface {
	Graph() *graph.Graph
	// Rounds returns the total rounds charged so far across the comm's
	// underlying engines.
	Rounds() int
	// Tracer returns the trace collector the comm's engines emit into
	// (never nil; simtrace.Nop when untraced). Solver layers use it to
	// open phase spans around the primitives they invoke.
	Tracer() simtrace.Collector
	// CollectMetrics snapshots the accumulated communication cost of the
	// comm's engines.
	CollectMetrics() Metrics
	// MatVecLaplacian computes y = L x with one neighbor-exchange round.
	MatVecLaplacian(x []float64) ([]float64, error)
	// GlobalSums returns the global sums of the given per-node vectors,
	// batched into one pipelined aggregation.
	GlobalSums(vecs ...[]float64) ([]float64, error)
	// ClusterTrees materializes aggregation trees for (possibly
	// overlapping) node clusters; the choice of tree shape is what
	// separates the universal solver from the baseline.
	ClusterTrees(clusters [][]graph.NodeID) ([]*graph.Tree, error)
	// TreeUpDown runs, concurrently over all trees, an upward subtree-sum
	// sweep of leaf values followed by a downward transforming sweep, and
	// returns each tree's node potentials. rootVal seeds the downward pass
	// from the root's subtree total; down computes a child's potential
	// from its parent's potential and the child's subtree sum.
	//
	// The result is dense: row t is indexed by node ID, defined only at
	// trees[t].Members (other slots hold stale scratch). Rows alias the
	// comm's pooled sweep buffer and are valid until the next TreeUpDown on
	// this comm (TreeTotals and the other primitives do not disturb them);
	// callers needing longer retention must copy.
	TreeUpDown(
		trees []*graph.Tree,
		leaf func(t int, v graph.NodeID) float64,
		rootVal func(t int, total float64) float64,
		down func(t int, parent, child graph.NodeID, parentVal, childSubtree float64) float64,
	) ([][]float64, error)
	// TreeTotals runs, concurrently over all trees, an upward sum of leaf
	// values followed by a broadcast of each root total back to the members,
	// returning the per-tree totals. It moves exactly the same sends through
	// exactly the same schedule as a TreeUpDown whose downward transform is
	// the identity — same pushes, same deliveries, same RNG draws — so the
	// two are charge-equivalent; TreeTotals just skips materializing
	// per-node potentials nobody reads.
	TreeTotals(trees []*graph.Tree, leaf func(t int, v graph.NodeID) float64) ([]float64, error)
}

// fsum is float64 summation over bit-packed words.
func fsum(a, b congest.Word) congest.Word {
	return congest.FloatWord(congest.WordFloat(a) + congest.WordFloat(b))
}

// FloatSum is the float64-summation aggregation spec (identity +0.0) used
// by every numerical aggregation in the solver.
var FloatSum = partwise.AggSpec{Name: "fsum", Fn: fsum, Identity: congest.FloatWord(0)}

// CongestComm implements Comm on the CONGEST engine. Like the engine it
// wraps, a comm is request-private and single-goroutine, so the pooled
// buffers below (MatVec output, sweep potentials, per-call tree lists) are
// reused across iterations without synchronization; none of them carries
// information between calls.
type CongestComm struct {
	nw    *congest.Network
	naive bool

	globalTree *graph.Tree

	mvY      []float64      // MatVecLaplacian output (pooled)
	gsTrees  []*graph.Tree  // GlobalSums per-call tree list (pooled)
	udOut    [][]float64    // TreeUpDown row views (pooled)
	udArena  []float64      // TreeUpDown dense potentials, k·n (pooled)
	rootVals []congest.Word // per-call downward seeds (pooled)
}

var _ Comm = (*CongestComm)(nil)

// NewCongestComm builds a CONGEST comm. naive selects the baseline mode in
// which all aggregation structures are (Steiner subtrees of) one global BFS
// tree. The global BFS tree is paid for once here when the network is not
// in Supported mode.
func NewCongestComm(nw *congest.Network, naive bool) (*CongestComm, error) {
	g := nw.Graph()
	if g.N() == 0 {
		return nil, errors.New("core: empty graph")
	}
	center := graph.ApproxCenter(g)
	var tree *graph.Tree
	if nw.Supported() {
		tree = graph.BFSTree(g, center)
	} else {
		res := nw.BFS(center)
		tree = &graph.Tree{
			Root: center, Parent: res.Parent, ParentEdge: res.ParentEdge,
			Depth: res.Dist, Members: res.Order,
		}
	}
	if len(tree.Members) != g.N() {
		return nil, errors.New("core: graph disconnected")
	}
	return newCongestCommWithTree(nw, naive, tree), nil
}

// newCongestCommWithTree wraps a network with an already-built global tree —
// the per-request constructor of a prepared Instance. It never charges
// rounds: the tree (and, in ModeCongest, the BFS that paid for it) belongs
// to the instance's one-time setup, which is the whole amortization story.
func newCongestCommWithTree(nw *congest.Network, naive bool, tree *graph.Tree) *CongestComm {
	return &CongestComm{nw: nw, naive: naive, globalTree: tree}
}

// Graph implements Comm.
func (c *CongestComm) Graph() *graph.Graph { return c.nw.Graph() }

// Rounds implements Comm.
func (c *CongestComm) Rounds() int { return c.nw.Rounds() }

// Tracer implements Comm.
func (c *CongestComm) Tracer() simtrace.Collector { return c.nw.Trace() }

// CollectMetrics implements Comm.
func (c *CongestComm) CollectMetrics() Metrics {
	return Metrics{Congest: CongestEngineMetrics(c.nw), Phases: PhasesOf(c.nw.Trace())}
}

// GlobalTree exposes the global BFS tree (used by the tree preconditioner).
func (c *CongestComm) GlobalTree() *graph.Tree { return c.globalTree }

// MatVecLaplacian implements Comm: one exchange round in which every node
// sends its x value to each neighbor and accumulates w·(x_v − x_u). Edge
// weights come from the engine's CSR topology (a flat array lookup per
// received word) and the output vector is pooled — valid until the next
// MatVecLaplacian on this comm.
func (c *CongestComm) MatVecLaplacian(x []float64) ([]float64, error) {
	g := c.nw.Graph()
	if len(x) != g.N() {
		return nil, fmt.Errorf("core: x has %d entries for n=%d", len(x), g.N())
	}
	if cap(c.mvY) < len(x) {
		c.mvY = make([]float64, len(x))
	}
	y := c.mvY[:len(x)]
	for i := range y {
		y[i] = 0
	}
	ew := c.nw.Topology().EdgeW
	c.nw.Exchange(
		func(v graph.NodeID, h graph.Half) (congest.Word, bool) {
			return congest.FloatWord(x[v]), true
		},
		func(v graph.NodeID, h graph.Half, w congest.Word) {
			xu := congest.WordFloat(w)
			y[v] += ew[h.Edge] * (x[v] - xu)
		},
	)
	return y, nil
}

// GlobalSums implements Comm: b vectors aggregate as b concurrent passes
// over the global tree (pipelined by the engine: cost ≈ height + b).
func (c *CongestComm) GlobalSums(vecs ...[]float64) ([]float64, error) {
	if len(vecs) == 0 {
		return nil, nil
	}
	trees := c.treeList(len(vecs))
	out, err := c.nw.AggregateMany(trees, func(t int, v graph.NodeID) congest.Word {
		return congest.FloatWord(vecs[t][v])
	}, fsum)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, len(out))
	for i, w := range out {
		sums[i] = congest.WordFloat(w)
	}
	return sums, nil
}

// treeList returns a pooled k-element slice of the global tree.
func (c *CongestComm) treeList(k int) []*graph.Tree {
	if cap(c.gsTrees) < k {
		c.gsTrees = make([]*graph.Tree, k)
	}
	trees := c.gsTrees[:k]
	for i := range trees {
		trees[i] = c.globalTree
	}
	return trees
}

// ClusterTrees implements Comm. Universal mode: a BFS tree inside each
// cluster (height ≤ cluster diameter). Naive mode: the cluster's Steiner
// subtree of the global BFS tree — tall and overlapping near the root, the
// existential baseline's behaviour.
func (c *CongestComm) ClusterTrees(clusters [][]graph.NodeID) ([]*graph.Tree, error) {
	g := c.nw.Graph()
	trees := make([]*graph.Tree, len(clusters))
	var sub graph.Induced
	for i, cl := range clusters {
		if len(cl) == 0 {
			return nil, fmt.Errorf("core: cluster %d empty", i)
		}
		if c.naive {
			trees[i] = steinerTreeOfGlobal(g, c.globalTree, cl)
			continue
		}
		tr := sub.Tree(g, cl, cl[0])
		if len(tr.Members) != len(cl) {
			return nil, fmt.Errorf("core: cluster %d not induced-connected", i)
		}
		trees[i] = tr
	}
	return trees, nil
}

// steinerTreeOfGlobal returns the subtree of the global tree spanning the
// terminals (terminals plus all their tree ancestors up to the meeting
// node), rooted at the shallowest included node.
func steinerTreeOfGlobal(g *graph.Graph, global *graph.Tree, terminals []graph.NodeID) *graph.Tree {
	include := make(map[graph.NodeID]bool)
	for _, t := range terminals {
		v := t
		for v != -1 && !include[v] {
			include[v] = true
			v = global.Parent[v]
		}
	}
	// Root = minimum-depth included node; scan in sorted node order so a
	// depth tie can never be broken by map iteration order.
	steiner := make([]graph.NodeID, 0, len(include))
	for v := range include {
		steiner = append(steiner, v)
	}
	sort.Ints(steiner)
	root := terminals[0]
	for _, v := range steiner {
		if global.Depth[v] < global.Depth[root] {
			root = v
		}
	}
	n := g.N()
	tr := &graph.Tree{
		Root:       root,
		Parent:     make([]graph.NodeID, n),
		ParentEdge: make([]graph.EdgeID, n),
		Depth:      make([]int, n),
	}
	for i := 0; i < n; i++ {
		tr.Parent[i] = -1
		tr.ParentEdge[i] = -1
		tr.Depth[i] = -1
	}
	// Members in global BFS order restricted to included nodes keeps
	// parents before children.
	for _, v := range global.Members {
		if !include[v] {
			continue
		}
		if v == root {
			tr.Depth[v] = 0
		} else {
			p := global.Parent[v]
			tr.Parent[v] = p
			tr.ParentEdge[v] = global.ParentEdge[v]
			tr.Depth[v] = tr.Depth[p] + 1
		}
		tr.Members = append(tr.Members, v)
	}
	return tr
}

// TreeUpDown implements Comm via the engine's concurrent sweep primitives.
// The returned rows are dense, pooled views (see the interface contract):
// entries outside trees[t].Members are stale scratch.
func (c *CongestComm) TreeUpDown(
	trees []*graph.Tree,
	leaf func(t int, v graph.NodeID) float64,
	rootVal func(t int, total float64) float64,
	down func(t int, parent, child graph.NodeID, parentVal, childSubtree float64) float64,
) ([][]float64, error) {
	roots, sub, err := c.nw.ConvergecastAll(trees,
		func(t int, v graph.NodeID) congest.Word {
			return congest.FloatWord(leaf(t, v))
		}, fsum)
	if err != nil {
		return nil, err
	}
	k := len(trees)
	if cap(c.rootVals) < k {
		c.rootVals = make([]congest.Word, k)
	}
	rootVals := c.rootVals[:k]
	for t := range trees {
		rootVals[t] = congest.FloatWord(rootVal(t, congest.WordFloat(roots[t])))
	}
	n := c.nw.Graph().N()
	if cap(c.udArena) < k*n {
		c.udArena = make([]float64, k*n)
	}
	if cap(c.udOut) < k {
		c.udOut = make([][]float64, k)
	}
	arena := c.udArena[:k*n]
	out := c.udOut[:k]
	for t := range out {
		out[t] = arena[t*n : (t+1)*n]
	}
	err = c.nw.DownSweepMany(trees, rootVals,
		func(t int, parent, child graph.NodeID, parentVal congest.Word) congest.Word {
			return congest.FloatWord(down(t, parent, child,
				congest.WordFloat(parentVal),
				congest.WordFloat(sub[t][child])))
		},
		func(t int, v graph.NodeID, w congest.Word) {
			out[t][v] = congest.WordFloat(w)
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TreeTotals implements Comm: one convergecast plus one broadcast per tree,
// charge-equivalent to an identity-transform TreeUpDown (the engine moves
// the same words over the same schedule; only the unread per-node
// materialization is skipped).
func (c *CongestComm) TreeTotals(
	trees []*graph.Tree,
	leaf func(t int, v graph.NodeID) float64,
) ([]float64, error) {
	out, err := c.nw.AggregateMany(trees, func(t int, v graph.NodeID) congest.Word {
		return congest.FloatWord(leaf(t, v))
	}, fsum)
	if err != nil {
		return nil, err
	}
	totals := make([]float64, len(out))
	for t, w := range out {
		totals[t] = congest.WordFloat(w)
	}
	return totals, nil
}

// HybridComm implements Comm for the HYBRID model (Theorem 3): local
// operations (MatVec, cluster sweeps) run on the CONGEST engine; global
// aggregation runs on the NCC engine in O(log n) rounds regardless of
// topology. Rounds are charged as the sum of both engines (a conservative
// upper bound on the interleaved execution).
type HybridComm struct {
	local  *CongestComm
	global *ncc.Network

	// Cached whole-graph identity aggregation instance for GlobalSums: the
	// identity part is built once and shared by every vector slot; the
	// per-slot value buffers are pooled. All request-private, like the comm.
	gsIdent []graph.NodeID
	gsInst  partwise.Instance
}

var _ Comm = (*HybridComm)(nil)

// Graph implements Comm.
func (h *HybridComm) Graph() *graph.Graph { return h.local.Graph() }

// Rounds implements Comm.
func (h *HybridComm) Rounds() int { return h.local.Rounds() + h.global.Rounds() }

// Tracer implements Comm.
func (h *HybridComm) Tracer() simtrace.Collector { return h.local.Tracer() }

// CollectMetrics implements Comm.
func (h *HybridComm) CollectMetrics() Metrics {
	nccM := NCCEngineMetrics(h.global)
	m := h.local.CollectMetrics()
	m.NCC = &nccM
	return m
}

// NCC exposes the global engine (metrics).
func (h *HybridComm) NCC() *ncc.Network { return h.global }

// MatVecLaplacian implements Comm (local edges).
func (h *HybridComm) MatVecLaplacian(x []float64) ([]float64, error) {
	return h.local.MatVecLaplacian(x)
}

// GlobalSums implements Comm via one NCC aggregation with one whole-graph
// part per vector (Lemma 26 with p = len(vecs)). The identity parts and
// value buffers are pooled on the comm, so a steady-state reduction
// allocates only its small result slice.
func (h *HybridComm) GlobalSums(vecs ...[]float64) ([]float64, error) {
	if len(vecs) == 0 {
		return nil, nil
	}
	n := h.Graph().N()
	if len(h.gsIdent) != n {
		h.gsIdent = make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			h.gsIdent[v] = v
		}
		h.gsInst = partwise.Instance{}
	}
	inst := &h.gsInst
	for len(inst.Parts) < len(vecs) {
		inst.Parts = append(inst.Parts, h.gsIdent)
		inst.Values = append(inst.Values, make([]congest.Word, n))
	}
	inst.Parts = inst.Parts[:len(vecs)]
	inst.Values = inst.Values[:len(vecs)]
	for i, vec := range vecs {
		vals := inst.Values[i]
		for v := 0; v < n; v++ {
			vals[v] = congest.FloatWord(vec[v])
		}
	}
	out, err := h.global.Aggregate(inst, FloatSum)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, len(out))
	for i, w := range out {
		sums[i] = congest.WordFloat(w)
	}
	return sums, nil
}

// ClusterTrees implements Comm (local, universal shape).
func (h *HybridComm) ClusterTrees(clusters [][]graph.NodeID) ([]*graph.Tree, error) {
	return h.local.ClusterTrees(clusters)
}

// TreeUpDown implements Comm (local edges).
func (h *HybridComm) TreeUpDown(
	trees []*graph.Tree,
	leaf func(t int, v graph.NodeID) float64,
	rootVal func(t int, total float64) float64,
	down func(t int, parent, child graph.NodeID, parentVal, childSubtree float64) float64,
) ([][]float64, error) {
	return h.local.TreeUpDown(trees, leaf, rootVal, down)
}

// TreeTotals implements Comm (local edges).
func (h *HybridComm) TreeTotals(
	trees []*graph.Tree,
	leaf func(t int, v graph.NodeID) float64,
) ([]float64, error) {
	return h.local.TreeTotals(trees, leaf)
}
