package shortcut

import (
	"errors"
	"fmt"
	"sort"

	"distlap/internal/congest"
	"distlap/internal/graph"
)

// This file implements the communication tasks of paper §3.1.3 used to
// characterize shortcut quality (Theorem 25):
//
//   - the multiple-unicast problem: route k source-sink pairs; completion
//     time = max(dilation, congestion) achieved by a set of connecting
//     paths, certified by actually scheduling the packets;
//   - the any-to-any-cast problem: find a source/sink matching minimizing
//     the multiple-unicast completion time;
//   - pair/any-to-any node connectivity witnesses and the Lemma 24-style
//     decomposition of a p-node-congested witness family into few
//     node-disjoint classes (greedy conflict coloring; the paper proves
//     O(p log k) classes exist, our greedy certifies an upper bound).

// UnicastPair is a source-sink demand.
type UnicastPair struct {
	Source, Sink graph.NodeID
}

// UnicastSolution is a set of connecting paths with its certified cost.
type UnicastSolution struct {
	Paths      [][]graph.EdgeID // per pair, edge path source -> sink
	Dilation   int              // max path length
	Congestion int              // max directed-edge multiplicity
	Makespan   int              // measured scheduled completion time
}

// ErrNoPath is returned when a demand pair is disconnected.
var ErrNoPath = errors.New("shortcut: no path between demand endpoints")

// SolveMultipleUnicast routes every pair along its BFS shortest path and
// certifies the solution by scheduling the packets on the engine (the
// measured makespan is a legal completion time, within the classic
// O(congestion + dilation) of the optimum for these paths).
func SolveMultipleUnicast(nw *congest.Network, pairs []UnicastPair) (*UnicastSolution, error) {
	g := nw.Graph()
	sol := &UnicastSolution{Paths: make([][]graph.EdgeID, len(pairs))}
	use := make(map[int]int)
	for i, pr := range pairs {
		path, err := bfsEdgePath(g, pr.Source, pr.Sink)
		if err != nil {
			return nil, fmt.Errorf("pair %d (%d->%d): %w", i, pr.Source, pr.Sink, err)
		}
		sol.Paths[i] = path
		if len(path) > sol.Dilation {
			sol.Dilation = len(path)
		}
		v := pr.Source
		for _, id := range path {
			key := 2 * id
			if g.Edge(id).U != v {
				key++
			}
			use[key]++
			if use[key] > sol.Congestion {
				sol.Congestion = use[key]
			}
			v = g.Other(id, v)
		}
	}
	pkts := make([]congest.Packet, len(pairs))
	for i, pr := range pairs {
		pkts[i] = congest.Packet{Start: pr.Source, Edges: sol.Paths[i], Payload: congest.Word(i)}
	}
	nw.Trace().Begin("unicast-route")
	before := nw.Rounds()
	if _, err := nw.RouteMany(pkts); err != nil {
		nw.Trace().End("unicast-route")
		return nil, err
	}
	sol.Makespan = nw.Rounds() - before
	nw.Trace().End("unicast-route")
	return sol, nil
}

// SolveAnyToAnyCast matches k sources to k sinks greedily by BFS distance
// (nearest available sink per source, sources processed by increasing
// nearest-distance) and solves the induced multiple-unicast instance. The
// returned permutation maps source index to sink index.
func SolveAnyToAnyCast(nw *congest.Network, sources, sinks []graph.NodeID) (*UnicastSolution, []int, error) {
	if len(sources) != len(sinks) {
		return nil, nil, fmt.Errorf("shortcut: %d sources vs %d sinks", len(sources), len(sinks))
	}
	g := nw.Graph()
	k := len(sources)
	// Distance matrix via one BFS per source (sources are typically few).
	dist := make([][]int, k)
	for i, s := range sources {
		res := graph.BFS(g, s)
		dist[i] = make([]int, k)
		for j, t := range sinks {
			dist[i][j] = res.Dist[t]
			if res.Dist[t] < 0 {
				return nil, nil, fmt.Errorf("source %d: %w", i, ErrNoPath)
			}
		}
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	nearest := func(i int) int {
		best := 1 << 30
		for j := 0; j < k; j++ {
			if dist[i][j] < best {
				best = dist[i][j]
			}
		}
		return best
	}
	sort.Slice(order, func(a, b int) bool { return nearest(order[a]) < nearest(order[b]) })
	taken := make([]bool, k)
	match := make([]int, k)
	for _, i := range order {
		best, bestD := -1, 1<<30
		for j := 0; j < k; j++ {
			if !taken[j] && dist[i][j] < bestD {
				best, bestD = j, dist[i][j]
			}
		}
		taken[best] = true
		match[i] = best
	}
	pairs := make([]UnicastPair, k)
	for i := range pairs {
		pairs[i] = UnicastPair{Source: sources[i], Sink: sinks[match[i]]}
	}
	sol, err := SolveMultipleUnicast(nw, pairs)
	if err != nil {
		return nil, nil, err
	}
	return sol, match, nil
}

// bfsEdgePath returns the edge sequence of a shortest path from s to t.
func bfsEdgePath(g *graph.Graph, s, t graph.NodeID) ([]graph.EdgeID, error) {
	res := graph.BFS(g, s)
	if t < 0 || t >= g.N() || res.Dist[t] < 0 {
		return nil, ErrNoPath
	}
	var rev []graph.EdgeID
	for v := t; v != s; v = res.Parent[v] {
		rev = append(rev, res.ParentEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// WitnessFamily is a family of node paths witnessing pair node connectivity
// (§3.1.3): path i connects pair i; the family's node congestion is the
// max number of paths through any node.
type WitnessFamily struct {
	Paths [][]graph.NodeID
}

// NodeCongestion returns the family's node congestion p.
func (w *WitnessFamily) NodeCongestion() int {
	cnt := make(map[graph.NodeID]int)
	p := 0
	for _, path := range w.Paths {
		for _, v := range path {
			cnt[v]++
			if cnt[v] > p {
				p = cnt[v]
			}
		}
	}
	return p
}

// DecomposeDisjoint greedily colors the witness paths so that paths of the
// same class are pairwise node-disjoint, returning the classes (each a list
// of path indices). This is the constructive companion to Lemma 24: the
// lemma guarantees O(p·log k) classes exist for a p-congested family; the
// greedy bound is classes ≤ 1 + max conflict degree, which the Theorem 22
// experiment uses as a measured upper bound.
func (w *WitnessFamily) DecomposeDisjoint() [][]int {
	k := len(w.Paths)
	byNode := make(map[graph.NodeID][]int)
	for i, path := range w.Paths {
		for _, v := range path {
			byNode[v] = append(byNode[v], i)
		}
	}
	conflict := make([]map[int]bool, k)
	for i := range conflict {
		conflict[i] = make(map[int]bool)
	}
	for _, idxs := range byNode { //distlint:allow maporder idempotent set inserts; the conflict relation is order-independent
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				if idxs[a] != idxs[b] {
					conflict[idxs[a]][idxs[b]] = true
					conflict[idxs[b]][idxs[a]] = true
				}
			}
		}
	}
	color := make([]int, k)
	classes := 0
	// Color longest paths first (they conflict most).
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(w.Paths[order[a]]) > len(w.Paths[order[b]])
	})
	colored := make([]bool, k)
	for _, i := range order {
		used := make(map[int]bool)
		for j := range conflict[i] { //distlint:allow maporder builds the used-color set; set membership is order-independent
			if colored[j] {
				used[color[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[i] = c
		colored[i] = true
		if c+1 > classes {
			classes = c + 1
		}
	}
	out := make([][]int, classes)
	for i, c := range color {
		out[c] = append(out[c], i)
	}
	return out
}

// Validate checks that every path is a walk in g connecting its endpoints
// and that each class of classes is pairwise node-disjoint.
func (w *WitnessFamily) Validate(g *graph.Graph, classes [][]int) error {
	for i, path := range w.Paths {
		for h := 0; h+1 < len(path); h++ {
			if !g.HasEdgeBetween(path[h], path[h+1]) {
				return fmt.Errorf("shortcut: witness %d: %d-%d not an edge", i, path[h], path[h+1])
			}
		}
	}
	for c, class := range classes {
		seen := make(map[graph.NodeID]int)
		for _, i := range class {
			for _, v := range w.Paths[i] {
				if prev, ok := seen[v]; ok && prev != i {
					return fmt.Errorf("shortcut: class %d: paths %d and %d share node %d",
						c, prev, i, v)
				}
				seen[v] = i
			}
		}
	}
	return nil
}
