package partwise

import (
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/shortcut"
)

// chargeConstruction charges the modeled cost of constructing the shortcut
// in standard CONGEST: a BFS to set up the skeleton plus Õ(quality) rounds,
// the shape promised by Theorem 8 (construction time ≈ achieved quality up
// to n^{o(1)}). In Supported-CONGEST the topology is common knowledge and
// construction is free.
func chargeConstruction(nw *congest.Network, s *shortcut.Shortcut) {
	if nw.Supported() {
		return
	}
	d := graph.DiameterApprox(nw.Graph())
	if d < 0 {
		d = 0
	}
	nw.ChargeRounds(d + s.Quality())
}

// SolveOneCongested is the Proposition 6 engine shared by every solver:
// build a shortcut for the parts with the portfolio (shortcut.Build) on
// sk, the skeleton of nw's graph, take a BFS tree of each augmented part
// G[P_i ∪ V(H_i)] (the subgraph induced on the part plus the endpoints of
// its extra edges, which contains G[P_i] ∪ H_i), and run a concurrent
// convergecast+broadcast over all trees.
// val(i, v) supplies the input of part i at node v (only part members are
// queried with their own values; relay nodes contribute the identity).
// The parts must be node-disjoint (1-congested); an overlap is an
// ErrCongested error.
// Returns the per-part aggregates and the shortcut used.
func SolveOneCongested(
	nw *congest.Network,
	sk *shortcut.Skeleton,
	parts [][]graph.NodeID,
	val func(i int, v graph.NodeID) congest.Word,
	spec AggSpec,
) ([]congest.Word, *shortcut.Shortcut, error) {
	g := nw.Graph()
	// owner[v] is 1 + the index of v's part, 0 for no part; relay[v] is
	// 1 + the last part that listed v as a relay. A node out of range is
	// left to the portfolio's validation to report.
	block := make([]int32, 2*g.N())
	owner, relay := block[:g.N()], block[g.N():]
	for i, p := range parts {
		for _, v := range p {
			if v < 0 || v >= g.N() {
				continue
			}
			if owner[v] != 0 {
				return nil, nil, fmt.Errorf("%w: node %d is in parts %d and %d", ErrCongested, v, owner[v]-1, i)
			}
			owner[v] = int32(i + 1)
		}
	}
	tr := nw.Trace()
	tr.Begin("shortcut-build")
	sc, err := shortcut.Build(sk, parts)
	if err != nil {
		tr.End("shortcut-build")
		return nil, nil, fmt.Errorf("partwise: build shortcut: %w", err)
	}
	chargeConstruction(nw, sc)
	tr.End("shortcut-build")

	trees := make([]*graph.PartTree, len(parts))
	var sub graph.Induced
	var memberList []graph.NodeID
	for i, p := range parts {
		// Extra-edge endpoints join the tree as relays.
		memberList = append(memberList[:0], p...)
		for _, id := range sc.Extra[i] {
			e := g.Edge(id)
			for _, x := range [2]graph.NodeID{e.U, e.V} {
				if owner[x] != int32(i+1) && relay[x] != int32(i+1) {
					relay[x] = int32(i + 1)
					memberList = append(memberList, x)
				}
			}
		}
		trees[i] = sub.Tree(g, memberList, p[0])
		if len(trees[i].Members) != len(memberList) {
			return nil, nil, fmt.Errorf("partwise: augmented part %d disconnected", i)
		}
	}
	tr.Begin("part-aggregate")
	set, err := congest.NewTreeSet(g, trees)
	var out []congest.Word
	if err == nil {
		out, err = nw.AggregateMany(set, func(t int, v graph.NodeID) congest.Word {
			if owner[v] == int32(t+1) {
				return val(t, v)
			}
			return spec.Identity
		}, spec.Fn)
	}
	tr.End("part-aggregate")
	if err != nil {
		return nil, nil, err
	}
	return out, sc, nil
}

// NaiveGlobalSolver is the existential baseline in the style of the
// pre-shortcut era (and of the global phases of [18]): every part
// aggregates over one global BFS tree rooted at node 0, so k parts cost
// Θ(k + D) rounds — the √n + D shape on worst-case partitions.
type NaiveGlobalSolver struct{}

var _ Solver = NaiveGlobalSolver{}

// Name implements Solver.
func (NaiveGlobalSolver) Name() string { return "naive-global" }

// Solve implements Solver.
func (NaiveGlobalSolver) Solve(nw *congest.Network, inst *Instance, spec AggSpec) ([]congest.Word, error) {
	g := nw.Graph()
	if err := inst.Validate(g); err != nil {
		return nil, err
	}
	nw.Trace().Begin("pwa-naive")
	defer nw.Trace().End("pwa-naive")
	var global *graph.PartTree
	if nw.Supported() {
		global = graph.BFSTree(g, 0)
	} else {
		global = nw.BFS(0).Tree() // pays O(D) rounds
	}
	if len(global.Members) != g.N() {
		return nil, fmt.Errorf("partwise: graph disconnected")
	}
	lut := inst.valueLookup()
	// One tree repeated per part: the set takes c = k from the repeat.
	trees := make([]*graph.PartTree, len(inst.Parts))
	for i := range trees {
		trees[i] = global
	}
	set, err := congest.NewTreeSet(g, trees)
	if err != nil {
		return nil, err
	}
	return nw.AggregateMany(set, func(t int, v graph.NodeID) congest.Word {
		if w, ok := lut[t][v]; ok {
			return w
		}
		return spec.Identity
	}, spec.Fn)
}

// ShortcutSolver solves 1-congested instances via low-congestion shortcuts
// (Proposition 6). It rejects congested instances; those belong to
// LayeredSolver. It remembers the shortcut skeleton of the graph it last
// solved on, so the Borůvka phases of one MST share one; use one solver per
// request, not one per package or held instance, and never one across
// goroutines.
type ShortcutSolver struct {
	sk *shortcut.Skeleton
}

var _ Solver = (*ShortcutSolver)(nil)

// Name implements Solver.
func (*ShortcutSolver) Name() string { return "shortcut" }

// Solve implements Solver. SolveOneCongested rejects a congested instance.
func (s *ShortcutSolver) Solve(nw *congest.Network, inst *Instance, spec AggSpec) ([]congest.Word, error) {
	g := nw.Graph()
	if err := inst.Validate(g); err != nil {
		return nil, err
	}
	if s.sk == nil || s.sk.Graph() != g {
		s.sk = shortcut.NewSkeleton(g)
	}
	// The parts are disjoint, so one value per node suffices.
	vals := make([]congest.Word, g.N())
	for i, p := range inst.Parts {
		for j, v := range p {
			vals[v] = inst.Values[i][j]
		}
	}
	out, _, err := SolveOneCongested(nw, s.sk, inst.Parts,
		func(_ int, v graph.NodeID) congest.Word { return vals[v] },
		spec)
	return out, err
}
