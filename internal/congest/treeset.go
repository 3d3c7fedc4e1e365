package congest

import (
	"errors"
	"fmt"
	"slices"

	"distlap/internal/graph"
)

// TreeSet is a tree collection compiled once for one graph: it numbers the
// members into slots, tree by tree, member i of tree t at slot First(t)+i,
// and records per slot its tree, host node, parent slot, child→parent
// directed edge and child list, plus the collection's congestion c. Every
// tree primitive takes a set, so a collection swept many times (a prepared
// instance's cluster trees, a request's global tree) pays for its layout
// once. The set is all a compiled collection keeps: its size is
// proportional to Σ members, and the part trees it was compiled from are
// not retained.
//
// A set is immutable after NewTreeSet returns and safe to share across
// goroutines: networks over its graph sweep it read-only and keep their
// sweep state on their own scratch. A primitive handed a set compiled for
// another graph refuses it before charging anything.
type TreeSet struct {
	g      *graph.Graph
	first  []int32        // per tree, plus a sentinel: tree t owns slots first[t]:first[t+1], its root first
	tree   []int32        // per slot: its tree
	node   []graph.NodeID // per slot: its host node
	parent []int32        // per slot: its parent's slot, -1 at the root
	up     []int32        // per slot: the child→parent directed edge (unused at the root)
	kids   []int32        // per slot, plus a sentinel: offsets into kid
	kid    []int32        // child slots grouped by parent, each group in slot order
	c      int            // congestion: most trees on one directed edge, at least 1
}

// errForeignSet refuses a set compiled for another graph: its directed
// edges would name the wrong links.
var errForeignSet = errors.New("congest: tree set compiled for another graph")

// NewTreeSet compiles trees over g in O(Σ members · log Σ members) and
// allocates nothing the size of g. It rejects an empty collection
// (ErrNoTrees), an empty tree, and a member whose parent does not come
// before it in its tree (the root, member 0, has parent -1).
//
// The congestion c is the longest run of equal directed edges in a sorted
// copy of the members' up edges (k for one tree repeated k times, a
// batched global sum).
func NewTreeSet(g *graph.Graph, trees []*graph.PartTree) (*TreeSet, error) {
	k := len(trees)
	if k == 0 {
		return nil, ErrNoTrees
	}
	total := 0
	for _, tr := range trees {
		total += len(tr.Members)
	}
	// One block holds every int32 array of the set.
	block := make([]int32, k+1+5*total+1)
	cut := func(n int) []int32 {
		s := block[:n:n]
		block = block[n:]
		return s
	}
	s := &TreeSet{
		g:      g,
		first:  cut(k + 1),
		tree:   cut(total),
		parent: cut(total),
		up:     cut(total),
		kids:   cut(total + 1),
		kid:    cut(total),
		node:   make([]graph.NodeID, total),
	}
	slot := int32(0)
	for t, tr := range trees {
		if len(tr.Members) == 0 {
			return nil, fmt.Errorf("congest: tree %d has no members", t)
		}
		first := slot
		s.first[t] = first
		for i, v := range tr.Members {
			s.tree[slot] = int32(t)
			s.node[slot] = v
			s.parent[slot] = -1
			if p := tr.Parent[i]; i > 0 || p != -1 {
				if p < 0 || int(p) >= i {
					return nil, fmt.Errorf("congest: member %d of tree %d has parent %d outside the tree", v, t, p)
				}
				s.parent[slot] = first + p
				s.up[slot] = int32(dirEdge(g, graph.EdgeID(tr.ParentEdge[i]), v))
				s.kids[first+p+1]++
			}
			slot++
		}
	}
	s.first[k] = slot
	// kid is the sort buffer until the child lists fill it.
	ups := s.kid[:0]
	for i, p := range s.parent {
		if p != -1 {
			ups = append(ups, s.up[i])
		}
	}
	slices.Sort(ups)
	s.c = 1
	run := 1
	for i := 1; i < len(ups); i++ {
		if ups[i] != ups[i-1] {
			run = 0
		}
		run++
		s.c = max(s.c, run)
	}
	// Child lists: prefix-sum the counts, then fill in slot order using
	// each parent's offset as its cursor, which leaves kids shifted by one.
	for i := 1; i <= total; i++ {
		s.kids[i] += s.kids[i-1]
	}
	for i, p := range s.parent {
		if p != -1 {
			s.kid[s.kids[p]] = int32(i)
			s.kids[p]++
		}
	}
	copy(s.kids[1:], s.kids[:total])
	s.kids[0] = 0
	return s, nil
}

// height returns the most hops from a root to a member that reaches it by
// parent links: the h of the round bracket. Only the checked mode
// (boundcheck.go) and tests need it, so the compile does not pay for it;
// it walks each member's path up, O(Σ members · h), and allocates nothing,
// so the checked mode keeps the allocation budgets.
func (s *TreeSet) height() int {
	h := 0
	for i := range s.parent {
		d, p := 0, s.parent[i]
		for ; p != -1 && d < len(s.parent); p = s.parent[p] {
			d++
		}
		if p == -1 {
			h = max(h, d)
		}
	}
	return h
}

// Len returns the number of trees in the set.
func (s *TreeSet) Len() int { return len(s.first) - 1 }

// First returns tree t's first slot, its root's; First(Len()) is the
// number of slots. Member i of tree t is slot First(t)+i.
func (s *TreeSet) First(t int) int { return int(s.first[t]) }

// Members returns tree t's members in slot order, the root first (shared,
// read-only).
func (s *TreeSet) Members(t int) []graph.NodeID { return s.node[s.first[t]:s.first[t+1]] }

// Node returns slot i's host node.
func (s *TreeSet) Node(i int) graph.NodeID { return s.node[i] }

// ParentEdge returns the host edge from slot i to its parent (its up
// edge halved), or -1 at a root.
func (s *TreeSet) ParentEdge(i int) graph.EdgeID {
	if s.parent[i] == -1 {
		return -1
	}
	return graph.EdgeID(s.up[i] >> 1)
}

// SizeBytes is the resident size of the set: its struct and its arrays.
func (s *TreeSet) SizeBytes() int64 {
	const header = 256 // the struct and its slice headers
	k, slots := int64(s.Len()), int64(len(s.node))
	return header + 4*(k+1+5*slots+1) + 8*slots
}
