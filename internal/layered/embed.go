package layered

import (
	"errors"
	"fmt"

	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// Path is a simple path in the base graph: a node sequence together with
// the base edges joining consecutive nodes. Lemma 18 restricts parts to
// such paths; general parts are decomposed into paths by the part-wise
// aggregation layer (following [29]).
type Path struct {
	Nodes []graph.NodeID
	Edges []graph.EdgeID
}

// Validate checks the path's structural invariants against the base graph.
func (p Path) Validate(base *graph.Graph) error {
	if len(p.Nodes) == 0 {
		return errors.New("layered: empty path")
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		return fmt.Errorf("layered: %d edges for %d nodes", len(p.Edges), len(p.Nodes))
	}
	seen := make(map[graph.NodeID]bool, len(p.Nodes))
	for i, v := range p.Nodes {
		if v < 0 || v >= base.N() {
			return fmt.Errorf("layered: %w: %d", graph.ErrNodeRange, v)
		}
		if seen[v] {
			return fmt.Errorf("layered: path repeats node %d", v)
		}
		seen[v] = true
		if i < len(p.Edges) {
			e := base.Edge(p.Edges[i])
			if !((e.U == v && e.V == p.Nodes[i+1]) || (e.V == v && e.U == p.Nodes[i+1])) {
				return fmt.Errorf("layered: edge %d does not join %d-%d",
					p.Edges[i], v, p.Nodes[i+1])
			}
		}
	}
	return nil
}

// Embedding is the result of reducing a batch of paths (a path-restricted
// p-congested instance) to a 1-congested instance on a layered graph
// (Lemma 18): per-path connected parts in Ĝ_L whose node sets are pairwise
// disjoint.
type Embedding struct {
	Layered *Layered
	L       int // number of layers used

	// Parts[j] is path j's part in the layered graph (1-congested).
	Parts [][]graph.NodeID
	// Canonical[j][i] is the single layered copy of path j's i-th node
	// designated to carry that node's input value (a node may appear as
	// two copies inside one part at a color junction; only the canonical
	// copy contributes its value).
	Canonical [][]graph.NodeID

	// ColoringRounds is the distributed cost of the Lemma 17 edge coloring
	// that the reduction paid on the base network.
	ColoringRounds int
}

// Report emits the embedding's shape into tr as free-form counters, so
// traces can attribute layered-graph blowup alongside the rounds it causes:
// one "layered.embeddings" tick plus the layer count, the Lemma 17 coloring
// rounds, and the total node copies materialized in Ĝ_L.
func (emb *Embedding) Report(tr simtrace.Collector) {
	tr = simtrace.OrNop(tr)
	tr.Counter("layered.embeddings", 1)
	tr.Counter("layered.layers", int64(emb.L))
	tr.Counter("layered.coloring-rounds", int64(emb.ColoringRounds))
	copies := 0
	for _, part := range emb.Parts {
		copies += len(part)
	}
	tr.Counter("layered.copies", int64(copies))
}

// EmbedPaths performs the Lemma 18 reduction on paths of base: it
// edge-colors the multigraph formed by all path edges with O(Δ) = O(p)
// colors (Lemma 17), then embeds each path edge into the layer given by
// its color, joining consecutive path edges through clique edges at their
// shared node. The resulting parts are node-disjoint (1-congested) in
// Ĝ_L = New(base, L), for the L colors the coloring uses.
//
// Paths of a single node are rejected; callers aggregate those locally.
func EmbedPaths(base *graph.Graph, paths []Path, seed int64) (*Embedding, error) {
	if len(paths) == 0 {
		return nil, errors.New("layered: no paths")
	}
	mg := &Multigraph{N: base.N()}
	for j, p := range paths {
		if err := p.Validate(base); err != nil {
			return nil, fmt.Errorf("path %d: %w", j, err)
		}
		if len(p.Nodes) < 2 {
			return nil, fmt.Errorf("path %d: singleton paths must be handled locally", j)
		}
		for i := 0; i+1 < len(p.Nodes); i++ {
			mg.Edges = append(mg.Edges, [2]int{p.Nodes[i], p.Nodes[i+1]})
		}
	}
	col, err := ColorEdges(mg, seed)
	if err != nil {
		return nil, err
	}
	// Remap used colors to a dense range, in first-use order, so the
	// layered graph has exactly as many layers as distinct colors in use.
	remap := make([]int, col.Palette)
	numLayers := 0
	for _, c := range col.Colors {
		if remap[c] == 0 {
			numLayers++
			remap[c] = numLayers
		}
	}
	lay, err := New(base, numLayers)
	if err != nil {
		return nil, err
	}
	emb := &Embedding{
		Layered:        lay,
		L:              numLayers,
		Parts:          make([][]graph.NodeID, len(paths)),
		Canonical:      make([][]graph.NodeID, len(paths)),
		ColoringRounds: col.Rounds,
	}
	idx := 0
	for j, p := range paths {
		colors := make([]int, len(p.Edges))
		for i := range p.Edges {
			colors[i] = remap[col.Colors[idx]] - 1
			idx++
		}
		// The path's nodes are distinct, and a junction's second copy is
		// in another layer than its canonical one, so no copy repeats.
		part := make([]graph.NodeID, 0, 2*len(p.Nodes))
		canon := make([]graph.NodeID, len(p.Nodes))
		for i := range p.Nodes {
			switch {
			case i == 0:
				canon[i] = lay.Copy(p.Nodes[i], colors[0])
			default:
				canon[i] = lay.Copy(p.Nodes[i], colors[i-1])
			}
			part = append(part, canon[i])
			// Junction: node i sits between edge i-1 (color[i-1]) and edge
			// i (color[i]); if they differ, the part also contains the copy
			// in edge i's layer, reached through a clique edge.
			if i > 0 && i < len(p.Nodes)-1 && colors[i] != colors[i-1] {
				part = append(part, lay.Copy(p.Nodes[i], colors[i]))
			}
		}
		emb.Parts[j] = part
		emb.Canonical[j] = canon
	}
	if err := emb.verify(); err != nil {
		return nil, err
	}
	return emb, nil
}

// verify checks the Lemma 18 guarantees: parts are pairwise node-disjoint
// and each part is induced-connected in the layered graph.
func (e *Embedding) verify() error {
	owner := make([]int32, e.Layered.G.N()) // 1 + the part holding each copy
	var sub graph.Induced
	for j, part := range e.Parts {
		for _, x := range part {
			if prev := owner[x]; prev != 0 {
				return fmt.Errorf("layered: parts %d and %d share copy %d (not 1-congested)",
					prev-1, j, x)
			}
			owner[x] = int32(j + 1)
		}
		if !sub.Connected(e.Layered.G, part) {
			return fmt.Errorf("layered: embedded part %d disconnected", j)
		}
	}
	return nil
}
