package partwise

import (
	"fmt"

	"distlap/internal/graph"
)

// decomposedPath is one heavy path of one part's spanning tree. Heavy-path
// decomposition realizes the reduction from general parts to path-restricted
// parts (Lemma 15, following [29]): every node lies on exactly one path of
// each part containing it, and the path tree has depth O(log |part|), so a
// p-congested general instance becomes O(log n) path-restricted batches of
// node congestion at most p.
type decomposedPath struct {
	part  int // index of the owning part
	level int // depth in the path tree; the root path has level 0
	nodes []graph.NodeID
	edges []graph.EdgeID // G edges joining consecutive nodes

	attach     graph.NodeID // tree parent of nodes[0]; -1 for level 0
	attachEdge graph.EdgeID // G edge nodes[0]-attach; -1 for level 0
}

// decomposePart heavy-path-decomposes the BFS spanning tree of the part,
// built with the caller's kernel.
func decomposePart(sub *graph.Induced, g *graph.Graph, part []graph.NodeID, partIdx int) ([]decomposedPath, error) {
	tr := sub.Tree(g, part, part[0])
	if len(tr.Members) != len(part) {
		return nil, fmt.Errorf("partwise: part %d not induced-connected", partIdx)
	}
	children := tr.Children()
	// Subtree sizes via reverse BFS order.
	size := make(map[graph.NodeID]int, len(part))
	for i := len(tr.Members) - 1; i >= 0; i-- {
		v := tr.Members[i]
		s := 1
		for _, c := range children[v] {
			s += size[c]
		}
		size[v] = s
	}
	heavy := make(map[graph.NodeID]graph.NodeID, len(part))
	for _, v := range tr.Members {
		best, bestSize := graph.NodeID(-1), -1
		for _, c := range children[v] {
			if size[c] > bestSize {
				best, bestSize = c, size[c]
			}
		}
		heavy[v] = best
	}

	var paths []decomposedPath
	type start struct {
		node  graph.NodeID
		level int
	}
	stack := []start{{node: tr.Root, level: 0}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dp := decomposedPath{
			part:       partIdx,
			level:      st.level,
			attach:     tr.Parent[st.node],
			attachEdge: tr.ParentEdge[st.node],
		}
		v := st.node
		for v != -1 {
			dp.nodes = append(dp.nodes, v)
			if h := heavy[v]; h != -1 {
				dp.edges = append(dp.edges, tr.ParentEdge[h])
			}
			for _, c := range children[v] {
				if c != heavy[v] {
					stack = append(stack, start{node: c, level: st.level + 1})
				}
			}
			v = heavy[v]
		}
		paths = append(paths, dp)
	}
	return paths, nil
}

// maxPathLevel returns the deepest path-tree level in the slice.
func maxPathLevel(paths []decomposedPath) int {
	max := 0
	for _, p := range paths {
		if p.level > max {
			max = p.level
		}
	}
	return max
}
