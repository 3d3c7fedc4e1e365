package shortcut

import (
	"fmt"
	"slices"

	"distlap/internal/graph"
)

// RegionBuilder is a multi-scale construction in the spirit of the
// minor-free shortcut constructions behind Theorem 10: the graph is
// recursively split by balanced BFS-layer separators into a region
// hierarchy of depth O(log n); each part is assigned to the smallest
// region that fully contains it, and its shortcut H_i is the Steiner
// subtree of the part in that region's own BFS tree. Small parts therefore
// get small-region trees (dilation ~ region diameter instead of graph
// diameter), and parts in disjoint regions never share shortcut edges —
// the measured congestion/dilation certificates quantify the gain.
type RegionBuilder struct{}

var _ Builder = RegionBuilder{}

// minRegionSize stops Build's region recursion below this many nodes.
const minRegionSize = 8

// Name implements Builder.
func (RegionBuilder) Name() string { return "region" }

// region is one node of the hierarchy.
type region struct {
	nodes  []graph.NodeID
	parent int // index into the regions slice; -1 for the root
	depth  int
}

// Build implements Builder.
func (RegionBuilder) Build(g *graph.Graph, parts [][]graph.NodeID) (*Shortcut, error) {
	var sub graph.Induced // one kernel for every part and region
	if err := validateParts(&sub, g, parts); err != nil {
		return nil, err
	}
	regions, leafOf, err := buildRegionHierarchy(&sub, g, minRegionSize)
	if err != nil {
		return nil, err
	}
	// ancestry[r] = set of region indices on r's root path, for LCA-style
	// smallest-containing-region queries.
	depthOf := func(r int) int { return regions[r].depth }
	ancestorAt := func(r, d int) int {
		for regions[r].depth > d {
			r = regions[r].parent
		}
		return r
	}
	smallestCommon := func(nodes []graph.NodeID) int {
		r := leafOf[nodes[0]]
		for _, v := range nodes[1:] {
			o := leafOf[v]
			// Lift both to equal depth, then climb together.
			if depthOf(o) > depthOf(r) {
				o = ancestorAt(o, depthOf(r))
			} else if depthOf(r) > depthOf(o) {
				r = ancestorAt(r, depthOf(o))
			}
			for r != o {
				r = regions[r].parent
				o = regions[o].parent
			}
		}
		return r
	}

	s := &Shortcut{
		Parts:   parts,
		Extra:   make([][]graph.EdgeID, len(parts)),
		Builder: "region",
	}
	// Each part's shortcut depends only on its region's BFS tree, so the
	// parts are grouped by region and each used region's tree is built
	// once, member-local, with its host-to-member index in one reused
	// array.
	byRegion := make([][]int, len(regions))
	for i, p := range parts {
		ri := smallestCommon(p)
		byRegion[ri] = append(byRegion[ri], i)
	}
	pos := make([]int32, g.N())
	for ri, idx := range byRegion {
		if len(idx) == 0 {
			continue
		}
		nodes := regions[ri].nodes
		tree := sub.Tree(g, nodes, sub.Center(g, nodes))
		if len(tree.Members) != len(nodes) {
			return nil, fmt.Errorf("shortcut: region %d disconnected", ri)
		}
		tree.IndexInto(pos)
		for _, i := range idx {
			s.Extra[i] = steinerSubtreeEdges(tree, pos, parts[i])
		}
	}
	if err := Verify(g, s); err != nil {
		return nil, err
	}
	return s, nil
}

// buildRegionHierarchy recursively splits g by middle BFS layers. Every
// region is connected; children partition the region minus its separator,
// with separator nodes folded into the largest child to keep the regions a
// laminar family covering all nodes. Returns the regions and each node's
// deepest (leaf) region.
func buildRegionHierarchy(sub *graph.Induced, g *graph.Graph, minRegion int) ([]region, []int, error) {
	n := g.N()
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = i
	}
	var regions []region
	leafOf := make([]int, n)
	type task struct {
		nodes  []graph.NodeID
		parent int
		depth  int
	}
	stack := []task{{nodes: all, parent: -1, depth: 0}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := len(regions)
		regions = append(regions, region{nodes: tk.nodes, parent: tk.parent, depth: tk.depth})
		for _, v := range tk.nodes {
			leafOf[v] = idx
		}
		if len(tk.nodes) <= minRegion || tk.depth > 40 {
			continue
		}
		children := splitByMiddleLayer(sub, g, tk.nodes)
		if len(children) <= 1 {
			continue
		}
		for _, ch := range children {
			stack = append(stack, task{nodes: ch, parent: idx, depth: tk.depth + 1})
		}
	}
	return regions, leafOf, nil
}

// splitByMiddleLayer removes the middle BFS layer of the induced subgraph
// and returns the resulting components with the separator folded into the
// largest one. Returns nil when no balanced split exists.
func splitByMiddleLayer(sub *graph.Induced, g *graph.Graph, nodes []graph.NodeID) [][]graph.NodeID {
	tr := sub.Tree(g, nodes, sub.Center(g, nodes))
	if len(tr.Members) != len(nodes) {
		return nil
	}
	h := tr.Height()
	if h < 2 {
		return nil
	}
	sepDepth := h / 2
	if sepDepth == 0 {
		sepDepth = 1
	}
	sep := make(map[graph.NodeID]bool)
	var rest []graph.NodeID
	for i, v := range tr.Members {
		if int(tr.Depth[i]) == sepDepth {
			sep[v] = true
		} else {
			rest = append(rest, v)
		}
	}
	if len(rest) == 0 {
		return nil
	}
	// Components of the region minus the separator.
	restG, orig := g.Subgraph(rest)
	comps := graph.Components(restG)
	if len(comps) < 2 {
		return nil
	}
	out := make([][]graph.NodeID, len(comps))
	largest := 0
	for i, comp := range comps {
		for _, lv := range comp {
			out[i] = append(out[i], orig[lv])
		}
		if len(out[i]) > len(out[largest]) {
			largest = i
		}
	}
	// Fold the separator into the largest component it touches, falling
	// back to any adjacent child (membership maps keep this linear).
	childOf := make(map[graph.NodeID]int)
	for i, ch := range out {
		for _, v := range ch {
			childOf[v] = i
		}
	}
	// Separator nodes may neighbor each other; process until stable.
	pending := make([]graph.NodeID, 0, len(sep))
	for v := range sep {
		pending = append(pending, v)
	}
	slices.Sort(pending)
	for len(pending) > 0 {
		progress := false
		next := pending[:0]
		for _, v := range pending {
			target := -1
			for _, h := range g.Neighbors(v) {
				if c, ok := childOf[h.To]; ok {
					if c == largest {
						target = largest
						break
					}
					if target == -1 {
						target = c
					}
				}
			}
			if target == -1 {
				next = append(next, v)
				continue
			}
			out[target] = append(out[target], v)
			childOf[v] = target
			progress = true
		}
		if !progress {
			// Isolated separator remnants (cannot happen in a connected
			// region, but stay safe): give them to the largest child.
			for _, v := range next {
				out[largest] = append(out[largest], v)
				childOf[v] = largest
			}
			break
		}
		pending = append([]graph.NodeID(nil), next...)
	}
	// Children must stay connected; drop the split if folding broke one.
	for _, ch := range out {
		if !sub.Connected(g, ch) {
			return nil
		}
	}
	return out
}
