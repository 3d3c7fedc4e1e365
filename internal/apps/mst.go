// Package apps implements the downstream applications the paper motivates:
// a universally-optimal MST via Borůvka-over-part-wise-aggregation (the
// classic client of the shortcut framework, §1 and Definition 4), the
// spanning-connected-subgraph problem and its reduction from Laplacian
// solving (Theorems 1 and 29), and electrical-flow / effective-resistance
// computations on top of the core solver.
//
// Determinism obligations: applications compose core/partwise primitives
// and never touch the engines directly, so their measured cost decomposes
// into primitive calls; all tie-breaking (Borůvka edge choice) is by
// stable IDs, and any randomness draws from rand chains
// seeded via seedderive — a run is a pure function of (graph, seed).
package apps

import (
	"errors"
	"fmt"
	"sort"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/partwise"
)

// MSTResult reports a distributed MST computation.
type MSTResult struct {
	Edges  []graph.EdgeID
	Weight int64
	Phases int
	Rounds int
	// Metrics is the structured communication cost of the run (engine
	// totals plus the per-phase breakdown when traced); prefer it over the
	// bare Rounds count.
	Metrics core.Metrics
}

// ErrDisconnected is returned when the input graph is not connected.
var ErrDisconnected = errors.New("apps: graph disconnected")

// edgeIDBits is the ID field width of an encoded edge. Weights are poly(n)
// by assumption (§2), so 31 bits of ID space (and the remaining 32 weight
// bits) suffice for the graphs the simulator handles; the packed payload is
// 63 bits, i.e. congest.WordsFor(63) == 1 honestly-charged word.
const edgeIDBits = 31

// encodeEdge packs (weight, edgeID) into one checked word so that
// min-aggregation selects the lightest edge with deterministic ID
// tie-breaking. congest.PackWord panics if either field overflows its
// width — silent truncation would corrupt the payload and under-charge the
// model (wordtrunc analyzer rationale).
func encodeEdge(w int64, id graph.EdgeID) congest.Word {
	return congest.PackWord(congest.Word(w), congest.Word(id), edgeIDBits)
}

func decodeEdge(x congest.Word) graph.EdgeID {
	_, id := congest.UnpackWord(x, edgeIDBits)
	return graph.EdgeID(id)
}

// noEdge is the min-identity for encoded edges: above every legal packed
// value of weights < 2^31 (poly(n) weights on simulator-scale graphs).
const noEdge = congest.Word(1) << 62

// MST computes a minimum spanning tree with Borůvka phases, each phase one
// part-wise aggregation (fragments = parts, min outgoing encoded edge) plus
// one neighbor exchange in which every node learns its neighbors' fragment
// IDs. With the shortcut solver this is the universally-optimal MST of the
// low-congestion-shortcut literature; with NaiveGlobalSolver it is the
// √n + D-style baseline.
func MST(nw *congest.Network, solver partwise.Solver) (*MSTResult, error) {
	g := nw.Graph()
	n := g.N()
	if n == 0 {
		return &MSTResult{}, nil
	}
	fragOf := make([]int, n)
	for v := range fragOf {
		fragOf[v] = v
	}
	uf := graph.NewUnionFind(n)
	chosen := make(map[graph.EdgeID]bool)
	res := &MSTResult{}

	tr := nw.Trace()
	tr.Begin("mst")
	defer tr.End("mst")
	for phase := 0; uf.Count() > 1; phase++ {
		if phase > 2*log2(n)+4 {
			return nil, ErrDisconnected
		}
		res.Phases++
		// Every node learns each neighbor's fragment (one exchange round).
		nbrFrag := make([]map[graph.EdgeID]int, n)
		for v := range nbrFrag {
			nbrFrag[v] = make(map[graph.EdgeID]int, g.Degree(v))
		}
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (congest.Word, bool) {
				return congest.Word(fragOf[v]), true
			},
			func(v graph.NodeID, h graph.Half, w congest.Word) {
				nbrFrag[v][h.Edge] = int(w)
			},
		)
		// Fragments as parts; each node contributes its min outgoing edge.
		frags := make(map[int][]graph.NodeID)
		for v := 0; v < n; v++ {
			frags[fragOf[v]] = append(frags[fragOf[v]], v)
		}
		inst := &partwise.Instance{}
		for id := 0; id < n; id++ {
			if part, ok := frags[id]; ok {
				vals := make([]congest.Word, len(part))
				for i, v := range part {
					best := noEdge
					for _, h := range g.Neighbors(v) {
						if nbrFrag[v][h.Edge] == fragOf[v] {
							continue
						}
						if enc := encodeEdge(g.Edge(h.Edge).Weight, h.Edge); enc < best {
							best = enc
						}
					}
					vals[i] = best
				}
				inst.Parts = append(inst.Parts, part)
				inst.Values = append(inst.Values, vals)
			}
		}
		spec := partwise.AggSpec{Name: "minedge", Fn: congest.AggMin, Identity: noEdge}
		mins, err := solver.Solve(nw, inst, spec)
		if err != nil {
			return nil, fmt.Errorf("apps: mst phase %d: %w", phase, err)
		}
		merged := false
		for i := range mins {
			if mins[i] == noEdge {
				continue // fragment with no outgoing edge: done or disconnected
			}
			id := decodeEdge(mins[i])
			e := g.Edge(id)
			if uf.Union(e.U, e.V) {
				chosen[id] = true
				merged = true
			}
		}
		if !merged {
			break
		}
		for v := 0; v < n; v++ {
			fragOf[v] = uf.Find(v)
		}
		// Fragment relabeling is itself a part-wise aggregation over the
		// merged fragments (every member learns the fragment's min node
		// ID); run it so the cost is charged, and use its output as the
		// label to keep the execution honest.
		newFrags := make(map[int][]graph.NodeID)
		for v := 0; v < n; v++ {
			newFrags[fragOf[v]] = append(newFrags[fragOf[v]], v)
		}
		relabel := &partwise.Instance{}
		var order [][]graph.NodeID
		for id := 0; id < n; id++ {
			if part, ok := newFrags[id]; ok {
				vals := make([]congest.Word, len(part))
				for i, v := range part {
					vals[i] = congest.Word(v)
				}
				relabel.Parts = append(relabel.Parts, part)
				relabel.Values = append(relabel.Values, vals)
				order = append(order, part)
			}
		}
		labels, err := solver.Solve(nw, relabel, partwise.Min)
		if err != nil {
			return nil, fmt.Errorf("apps: mst relabel phase %d: %w", phase, err)
		}
		for i, part := range order {
			for _, v := range part {
				fragOf[v] = int(labels[i])
			}
		}
	}
	if uf.Count() > 1 {
		return nil, ErrDisconnected
	}
	// Report edges in sorted ID order: map iteration order would leak into
	// the result (and into the float Weight sum, whose rounding depends on
	// addition order).
	ids := make([]graph.EdgeID, 0, len(chosen))
	for id := range chosen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		res.Edges = append(res.Edges, id)
		res.Weight += g.Edge(id).Weight
	}
	res.Rounds = nw.Rounds()
	res.Metrics = core.Metrics{
		Congest: core.CongestEngineMetrics(nw),
		Phases:  core.PhasesOf(nw.Trace()),
	}
	return res, nil
}

func log2(n int) int {
	k := 0
	for p := 1; p < n; p *= 2 {
		k++
	}
	return k
}
