package partwise

import (
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/layered"
	"distlap/internal/seedderive"
	"distlap/internal/shortcut"
	"distlap/internal/simtrace"
)

// LayeredSolver solves p-congested part-wise aggregation instances by the
// paper's §3.1 pipeline:
//
//  1. each part's spanning tree is heavy-path decomposed (Lemma 15 /
//     [29]): O(log n) levels of simple paths, node congestion ≤ p per
//     level;
//  2. each level's batch of paths — a path-restricted p-congested
//     instance — is reduced to a 1-congested instance on a layered graph
//     Ĝ_{O(p)} by the Lemma 18 embedding (edge coloring per Lemma 17);
//  3. the 1-congested instance is solved over a low-congestion shortcut of
//     the layered graph (Proposition 6 + Theorem 22), and the measured
//     layered rounds are charged on the base network with the ×O(p)
//     simulation overhead of Lemma 16;
//  4. child-path aggregates flow to their attachment nodes between upward
//     levels, and part aggregates flow back down symmetrically, so every
//     member of every part ends up knowing its part's aggregate.
type LayeredSolver struct {
	Seed int64
}

var _ Solver = LayeredSolver{}

// Name implements Solver.
func (s LayeredSolver) Name() string { return "layered" }

// Solve implements Solver.
func (s LayeredSolver) Solve(nw *congest.Network, inst *Instance, spec AggSpec) ([]congest.Word, error) {
	g := nw.Graph()
	if err := inst.Validate(g); err != nil {
		return nil, err
	}
	tr := nw.Trace()
	tr.Begin("pwa-layered")
	defer tr.End("pwa-layered")
	lut := inst.valueLookup()

	// 1. Decompose all parts into heavy paths grouped by level.
	var all []decomposedPath
	var sub graph.Induced
	for i, p := range inst.Parts {
		dps, err := decomposePart(&sub, g, p, i)
		if err != nil {
			return nil, err
		}
		all = append(all, dps...)
	}
	maxLevel := maxPathLevel(all)
	byLevel := make([][]decomposedPath, maxLevel+1)
	for _, dp := range all {
		byLevel[dp.level] = append(byLevel[dp.level], dp)
	}

	// pending[(part,node)] accumulates child-path aggregates delivered to
	// attachment nodes.
	type key struct {
		part int
		node graph.NodeID
	}
	pending := make(map[key]congest.Word)
	valueAt := func(part int, v graph.NodeID) congest.Word {
		w := lut[part][v]
		if extra, ok := pending[key{part, v}]; ok {
			w = spec.Fn(w, extra)
		}
		return w
	}

	// 2–3. Upward sweep: deepest level first.
	partAgg := make([]congest.Word, len(inst.Parts))
	tr.Begin("levels-up")
	for lvl := maxLevel; lvl >= 0; lvl-- {
		batch := byLevel[lvl]
		aggs, err := solvePathBatch(nw, batch, valueAt, spec,
			seedderive.Derive(s.Seed, "level-up", int64(lvl)))
		if err != nil {
			tr.End("levels-up")
			return nil, fmt.Errorf("partwise: level %d up: %w", lvl, err)
		}
		// Telemetry: one sample per level — how many paths this level's
		// batch carried and the base-network rounds consumed so far.
		tr.Gauge("pwa.level-up.paths", lvl, float64(len(batch)), nw.Rounds())
		if lvl == 0 {
			for b, dp := range batch {
				partAgg[dp.part] = aggs[b]
			}
			continue
		}
		// 4. Deliver each path's aggregate to its attachment node.
		pkts := make([]congest.Packet, len(batch))
		for b, dp := range batch {
			pkts[b] = congest.Packet{
				Start:   dp.nodes[0],
				Edges:   []graph.EdgeID{dp.attachEdge},
				Payload: aggs[b],
			}
		}
		if _, err := nw.RouteMany(pkts); err != nil {
			tr.End("levels-up")
			return nil, err
		}
		for b, dp := range batch {
			k := key{dp.part, dp.attach}
			if prev, ok := pending[k]; ok {
				pending[k] = spec.Fn(prev, aggs[b])
			} else {
				pending[k] = aggs[b]
			}
		}
	}
	tr.End("levels-up")

	// Downward sweep: attachment nodes forward the final part aggregate to
	// deeper paths, which broadcast it internally via the same machinery
	// (the aggregate of {A, identity, ...} is A).
	tr.Begin("levels-down")
	defer tr.End("levels-down")
	for lvl := 0; lvl < maxLevel; lvl++ {
		batch := byLevel[lvl+1]
		if len(batch) == 0 {
			continue
		}
		pkts := make([]congest.Packet, len(batch))
		for b, dp := range batch {
			pkts[b] = congest.Packet{
				Start:   dp.attach,
				Edges:   []graph.EdgeID{dp.attachEdge},
				Payload: partAgg[dp.part],
			}
		}
		if _, err := nw.RouteMany(pkts); err != nil {
			return nil, err
		}
		// Only each path's top carries the aggregate; everyone else
		// contributes the identity, so the path "aggregate" is a broadcast.
		tops := make(map[key]congest.Word, len(batch))
		for _, dp := range batch {
			tops[key{dp.part, dp.nodes[0]}] = partAgg[dp.part]
		}
		if _, err := solvePathBatch(nw, batch,
			func(part int, v graph.NodeID) congest.Word {
				if w, ok := tops[key{part, v}]; ok {
					return w
				}
				return spec.Identity
			}, spec, seedderive.Derive(s.Seed, "level-down", int64(lvl+1))); err != nil {
			return nil, fmt.Errorf("partwise: level %d down: %w", lvl+1, err)
		}
		tr.Gauge("pwa.level-down.paths", lvl+1, float64(len(batch)), nw.Rounds())
	}
	return partAgg, nil
}

// solvePathBatch solves one path-restricted congested batch: singleton
// paths aggregate locally; multi-node paths go through the Lemma 18
// embedding onto Ĝ_{O(p)}, are solved there as a 1-congested instance via
// Proposition 6, and the layered cost is charged on the base network with
// the Lemma 16 overhead. Returns per-path aggregates aligned with batch.
// The batch's Ĝ_L, its skeleton and its value array are its own: with the
// cliques implicit, building them costs about as much as the layer edges.
func solvePathBatch(
	nw *congest.Network,
	batch []decomposedPath,
	valueAt func(part int, v graph.NodeID) congest.Word,
	spec AggSpec,
	seed int64,
) ([]congest.Word, error) {
	out := make([]congest.Word, len(batch))
	var paths []layered.Path
	var multiIdx []int
	for b, dp := range batch {
		if len(dp.nodes) == 1 {
			out[b] = valueAt(dp.part, dp.nodes[0])
			continue
		}
		paths = append(paths, layered.Path{Nodes: dp.nodes, Edges: dp.edges})
		multiIdx = append(multiIdx, b)
	}
	if len(paths) == 0 {
		return out, nil
	}
	emb, err := layered.EmbedPaths(nw.Graph(), paths, seed)
	if err != nil {
		return nil, err
	}
	emb.Report(nw.Trace())
	// Each canonical copy carries its node's value; every other copy holds
	// the identity.
	vals := make([]congest.Word, emb.Layered.G.N())
	for i := range vals {
		vals[i] = spec.Identity
	}
	for j, b := range multiIdx {
		dp := batch[b]
		for i, v := range dp.nodes {
			vals[emb.Canonical[j][i]] = valueAt(dp.part, v)
		}
	}
	// The sub-network shares the base trace but records under the
	// "layered" engine label: its rounds are internal to the Lemma 16
	// simulation, whose cost is charged on the base network (engine
	// "congest") below — two labels keep the accounting disjoint. It is
	// built per batch, since its seed is.
	layNW := congest.NewNetwork(emb.Layered.G, congest.Options{
		Supported:   nw.Supported(),
		Seed:        seedderive.Derive(seed, "layered-network", 0),
		Trace:       nw.Trace(),
		TraceEngine: simtrace.EngineLayered,
	})
	aggs, _, err := SolveOneCongested(layNW, shortcut.NewSkeleton(emb.Layered.G), emb.Parts,
		func(_ int, x graph.NodeID) congest.Word { return vals[x] }, spec)
	if err != nil {
		return nil, err
	}
	// Lemma 16 + Lemma 17 accounting on the base network.
	nw.ChargeRounds(emb.ColoringRounds + emb.Layered.SimulatedRounds(layNW.Rounds()))
	for j, b := range multiIdx {
		out[b] = aggs[j]
	}
	return out, nil
}
