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
	"slices"

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
	// overlapping) node clusters, member-local, compiled into one set of
	// size O(Σ tree members); the choice of tree shape is what separates
	// the universal solver from the baseline. The set is immutable, so a
	// prepared instance shares it read-only with every request.
	ClusterTrees(clusters [][]graph.NodeID) (*congest.TreeSet, error)
	// TreeUpDown runs, concurrently over all trees, an upward subtree-sum
	// sweep of leaf values followed by a downward transforming sweep, and
	// returns each tree's member potentials. rootVal seeds the downward
	// pass from the root's subtree total; down computes a child's potential
	// from its parent's potential and childSubtree, the child's subtree sum
	// already divided by the weight of the child's tree edge (the comm
	// reads the edge from the set), which is the step of a tree-Laplacian
	// solve.
	//
	// Row t is aligned with set.Members(t): entry i is the potential of
	// member i, the member at slot set.First(t)+i. The rows are views of
	// one Σ-members buffer pooled on the comm and are valid until the next
	// TreeUpDown on this comm (TreeTotals and the other primitives do not
	// disturb them); callers needing longer retention must copy.
	TreeUpDown(
		set *congest.TreeSet,
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
	TreeTotals(set *congest.TreeSet, leaf func(t int, v graph.NodeID) float64) ([]float64, error)
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
// buffers below (MatVec output, sweep potentials) are reused across
// iterations without synchronization; none of them carries information
// between calls.
type CongestComm struct {
	nw    *congest.Network
	naive bool

	globalTree *graph.PartTree
	// globalSets[k] is the global tree repeated k times, compiled the
	// first time this request sums k vectors (Iterate and SolveChebyshev
	// ask for k = 1 and 2). They stay per request: on the instance they
	// would grow every cached entry for a compile that costs microseconds.
	globalSets []*congest.TreeSet

	mvY     []float64   // MatVecLaplacian output (pooled)
	udOut   [][]float64 // TreeUpDown row views (pooled)
	udArena []float64   // TreeUpDown member potentials, one per slot (pooled)
}

var _ Comm = (*CongestComm)(nil)

// NewCongestComm builds a CONGEST comm. naive selects the baseline mode in
// which all aggregation structures are (Steiner subtrees of) one global BFS
// tree. The global BFS tree is paid for once here, by the charged
// distributed BFS, when the network is not in Supported mode.
func NewCongestComm(nw *congest.Network, naive bool) (*CongestComm, error) {
	g := nw.Graph()
	if g.N() == 0 {
		return nil, errors.New("core: empty graph")
	}
	var tree *graph.PartTree
	if nw.Supported() {
		tree = graph.CenterTree(g)
	} else {
		tree = nw.BFS(graph.ApproxCenter(g)).Tree()
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
func newCongestCommWithTree(nw *congest.Network, naive bool, tree *graph.PartTree) *CongestComm {
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
func (c *CongestComm) GlobalTree() *graph.PartTree { return c.globalTree }

// MatVecLaplacian implements Comm: one exchange round in which every node
// sends its x value to each neighbor and accumulates w·(x_v − x_u). Edge
// weights are read from the graph's edge list by the received half-edge's
// EdgeID, and the output vector is pooled — valid until the next
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
	edges := g.EdgeList()
	c.nw.Exchange(
		func(v graph.NodeID, h graph.Half) (congest.Word, bool) {
			return congest.FloatWord(x[v]), true
		},
		func(v graph.NodeID, h graph.Half, w congest.Word) {
			xu := congest.WordFloat(w)
			y[v] += float64(edges[h.Edge].Weight) * (x[v] - xu)
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
	set, err := c.globalSet(len(vecs))
	if err != nil {
		return nil, err
	}
	out, err := c.nw.AggregateMany(set, func(t int, v graph.NodeID) congest.Word {
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

// globalSet returns the global tree repeated k times, compiled on this
// request's first k-vector sum; its congestion is k.
func (c *CongestComm) globalSet(k int) (*congest.TreeSet, error) {
	if k >= len(c.globalSets) {
		c.globalSets = append(c.globalSets, make([]*congest.TreeSet, k+1-len(c.globalSets))...)
	}
	if c.globalSets[k] == nil {
		trees := make([]*graph.PartTree, k)
		for i := range trees {
			trees[i] = c.globalTree
		}
		set, err := congest.NewTreeSet(c.nw.Graph(), trees)
		if err != nil {
			return nil, err
		}
		c.globalSets[k] = set
	}
	return c.globalSets[k], nil
}

// ClusterTrees implements Comm. Universal mode: a BFS tree inside each
// cluster (height ≤ cluster diameter). Naive mode: the cluster's Steiner
// subtree of the global BFS tree — tall and overlapping near the root, the
// existential baseline's behaviour. Either way the trees are member-local
// and come back compiled into one set.
func (c *CongestComm) ClusterTrees(clusters [][]graph.NodeID) (*congest.TreeSet, error) {
	g := c.nw.Graph()
	trees := make([]*graph.PartTree, len(clusters))
	var sub graph.Induced
	var steiner steinerScratch
	for i, cl := range clusters {
		if len(cl) == 0 {
			return nil, fmt.Errorf("core: cluster %d empty", i)
		}
		if c.naive {
			trees[i] = steiner.tree(c.globalTree, cl)
			continue
		}
		tr := sub.Tree(g, cl, cl[0])
		if len(tr.Members) != len(cl) {
			return nil, fmt.Errorf("core: cluster %d not induced-connected", i)
		}
		trees[i] = tr
	}
	return congest.NewTreeSet(g, trees)
}

// steinerScratch holds the two global-tree-sized indices the naive mode's
// Steiner trees are cut with, allocated on the first cluster and reused
// for the rest.
type steinerScratch struct {
	pos   []int32 // host node → member index in the global tree
	local []int32 // global member index → Steiner member index + 1; 0 outside (between calls)
}

// tree returns the subtree of the global tree spanning the terminals: the
// terminals plus all their tree ancestors, rooted at the global root, its
// members in global BFS order so parents precede children.
func (s *steinerScratch) tree(global *graph.PartTree, terminals []graph.NodeID) *graph.PartTree {
	if s.pos == nil {
		s.pos = make([]int32, len(global.Members))
		s.local = make([]int32, len(global.Members))
		global.IndexInto(s.pos)
	}
	local := s.local
	var marked []int32
	for _, t := range terminals {
		for i := s.pos[t]; i != -1 && local[i] == 0; i = global.Parent[i] {
			local[i] = -1
			marked = append(marked, i)
		}
	}
	// Global member indices are global BFS positions.
	slices.Sort(marked)
	tr := graph.NewPartTree(len(marked))
	for j, i := range marked {
		local[i] = int32(j + 1)
		tr.Members[j] = global.Members[i]
		tr.Parent[j], tr.ParentEdge[j], tr.Depth[j] = -1, -1, 0
		if p := global.Parent[i]; p != -1 {
			q := local[p] - 1
			tr.Parent[j], tr.ParentEdge[j], tr.Depth[j] = q, global.ParentEdge[i], tr.Depth[q]+1
		}
	}
	for _, i := range marked {
		local[i] = 0
	}
	return tr
}

// TreeUpDown implements Comm via the engine's UpDownMany. The returned
// rows are pooled views aligned with the set's members (see the interface
// contract), and down receives the child's subtree sum divided by the
// weight of its tree edge.
func (c *CongestComm) TreeUpDown(
	set *congest.TreeSet,
	leaf func(t int, v graph.NodeID) float64,
	rootVal func(t int, total float64) float64,
	down func(t int, parent, child graph.NodeID, parentVal, childSubtree float64) float64,
) ([][]float64, error) {
	k, slots := set.Len(), set.First(set.Len())
	if cap(c.udArena) < slots {
		c.udArena = make([]float64, slots)
	}
	if cap(c.udOut) < k {
		c.udOut = make([][]float64, k)
	}
	arena := c.udArena[:slots]
	out := c.udOut[:k]
	for t := range out {
		a, b := set.First(t), set.First(t+1)
		out[t] = arena[a:b:b]
	}
	edges := c.nw.Graph().EdgeList()
	err := c.nw.UpDownMany(set,
		func(t int, v graph.NodeID) congest.Word {
			return congest.FloatWord(leaf(t, v))
		},
		fsum,
		func(t int, total congest.Word) congest.Word {
			return congest.FloatWord(rootVal(t, congest.WordFloat(total)))
		},
		func(t, parent, child int, parentVal, childSub congest.Word) congest.Word {
			w := float64(edges[set.ParentEdge(child)].Weight)
			return congest.FloatWord(down(t, set.Node(parent), set.Node(child),
				congest.WordFloat(parentVal), congest.WordFloat(childSub)/w))
		},
		func(_, i int, w congest.Word) {
			arena[i] = congest.WordFloat(w)
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
	set *congest.TreeSet,
	leaf func(t int, v graph.NodeID) float64,
) ([]float64, error) {
	out, err := c.nw.AggregateMany(set, func(t int, v graph.NodeID) congest.Word {
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
// operations (MatVec, cluster sweeps) run on the embedded CONGEST comm;
// global aggregation runs on the NCC engine in O(log n) rounds regardless
// of topology. Rounds are charged as the sum of both engines (a
// conservative upper bound on the interleaved execution).
type HybridComm struct {
	*CongestComm
	global *ncc.Network

	// Cached whole-graph identity aggregation instance for GlobalSums: the
	// identity part is built once and shared by every vector slot; the
	// per-slot value buffers are pooled. All request-private, like the comm.
	gsIdent []graph.NodeID
	gsInst  partwise.Instance
}

var _ Comm = (*HybridComm)(nil)

// Rounds implements Comm.
func (h *HybridComm) Rounds() int { return h.CongestComm.Rounds() + h.global.Rounds() }

// CollectMetrics implements Comm.
func (h *HybridComm) CollectMetrics() Metrics {
	nccM := NCCEngineMetrics(h.global)
	m := h.CongestComm.CollectMetrics()
	m.NCC = &nccM
	return m
}

// NCC exposes the global engine (metrics).
func (h *HybridComm) NCC() *ncc.Network { return h.global }

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
