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

// portfolio builds every shortcut the part-wise solvers use.
var portfolio = shortcut.DefaultPortfolio()

// SolveOneCongested is the Proposition 6 engine shared by every solver:
// build a shortcut for the parts with the default portfolio, take a BFS tree of each augmented part
// G[P_i ∪ V(H_i)] (the subgraph induced on the part plus the endpoints of
// its extra edges, which contains G[P_i] ∪ H_i), and run a concurrent
// convergecast+broadcast over all trees.
// val(i, v) supplies the input of part i at node v (only part members are
// queried with their own values; relay nodes contribute the identity).
// Returns the per-part aggregates and the shortcut used.
func SolveOneCongested(
	nw *congest.Network,
	parts [][]graph.NodeID,
	val func(i int, v graph.NodeID) congest.Word,
	spec AggSpec,
) ([]congest.Word, *shortcut.Shortcut, error) {
	g := nw.Graph()
	tr := nw.Trace()
	tr.Begin("shortcut-build")
	sc, err := portfolio.Build(g, parts)
	if err != nil {
		tr.End("shortcut-build")
		return nil, nil, fmt.Errorf("partwise: build shortcut: %w", err)
	}
	chargeConstruction(nw, sc)
	tr.End("shortcut-build")

	trees := make([]*graph.PartTree, len(parts))
	members := make([]map[graph.NodeID]bool, len(parts))
	var sub graph.Induced
	for i, p := range parts {
		members[i] = make(map[graph.NodeID]bool, len(p))
		memberList := make([]graph.NodeID, 0, len(p))
		for _, v := range p {
			members[i][v] = true
			memberList = append(memberList, v)
		}
		// Extra-edge endpoints join the tree as relays.
		seen := make(map[graph.NodeID]bool, len(p))
		for _, v := range p {
			seen[v] = true
		}
		for _, id := range sc.Extra[i] {
			e := g.Edge(id)
			for _, x := range []graph.NodeID{e.U, e.V} {
				if !seen[x] {
					seen[x] = true
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
			if members[t][v] {
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
// LayeredSolver.
type ShortcutSolver struct{}

var _ Solver = ShortcutSolver{}

// Name implements Solver.
func (ShortcutSolver) Name() string { return "shortcut" }

// Solve implements Solver.
func (ShortcutSolver) Solve(nw *congest.Network, inst *Instance, spec AggSpec) ([]congest.Word, error) {
	if err := inst.Validate(nw.Graph()); err != nil {
		return nil, err
	}
	if c := inst.Congestion(); c > 1 {
		return nil, fmt.Errorf("%w: p=%d", ErrCongested, c)
	}
	lut := inst.valueLookup()
	out, _, err := SolveOneCongested(nw, inst.Parts,
		func(i int, v graph.NodeID) congest.Word { return lut[i][v] },
		spec)
	return out, err
}
