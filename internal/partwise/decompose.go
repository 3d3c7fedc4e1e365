package partwise

import (
	"fmt"
	"slices"

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
// built with the caller's kernel. Children, subtree sizes and heavy
// children are kept by member index, so the decomposition costs O(|part|)
// beyond the search.
func decomposePart(sub *graph.Induced, g *graph.Graph, part []graph.NodeID, partIdx int) ([]decomposedPath, error) {
	tr := sub.Tree(g, part, part[0])
	k := len(tr.Members)
	if k != len(part) {
		return nil, fmt.Errorf("partwise: part %d not induced-connected", partIdx)
	}
	// One block: subtree sizes, heavy children (-1 for none) and the
	// children grouped by parent in member order (offsets kids, list kid).
	block := make([]int32, 4*k+1)
	size, heavy, kids, kid := block[:k], block[k:2*k], block[2*k:3*k+1], block[3*k+1:]
	// Members list parents first, so a reverse scan completes each subtree
	// before adding it to its parent.
	for i := k - 1; i >= 0; i-- {
		size[i]++
		if p := tr.Parent[i]; p != -1 {
			size[p] += size[i]
			kids[p+1]++
		}
	}
	for i := range heavy {
		heavy[i] = -1
	}
	for i := 1; i < k; i++ {
		kids[i+1] += kids[i]
		// The first child of largest size, in member order.
		if p := tr.Parent[i]; heavy[p] == -1 || size[i] > size[heavy[p]] {
			heavy[p] = int32(i)
		}
	}
	fill := slices.Clone(kids[:k])
	for i := 1; i < k; i++ {
		p := tr.Parent[i]
		kid[fill[p]] = int32(i)
		fill[p]++
	}

	var paths []decomposedPath
	type start struct {
		member int32
		level  int
	}
	stack := []start{{member: 0, level: 0}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dp := decomposedPath{
			part:       partIdx,
			level:      st.level,
			attach:     -1,
			attachEdge: graph.EdgeID(tr.ParentEdge[st.member]),
		}
		if p := tr.Parent[st.member]; p != -1 {
			dp.attach = tr.Members[p]
		}
		for i := st.member; i != -1; i = heavy[i] {
			dp.nodes = append(dp.nodes, tr.Members[i])
			if h := heavy[i]; h != -1 {
				dp.edges = append(dp.edges, graph.EdgeID(tr.ParentEdge[h]))
			}
			for _, c := range kid[kids[i]:kids[i+1]] {
				if c != heavy[i] {
					stack = append(stack, start{member: c, level: st.level + 1})
				}
			}
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
