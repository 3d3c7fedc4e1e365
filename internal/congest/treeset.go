package congest

import (
	"errors"
	"fmt"
	"slices"

	"distlap/internal/graph"
)

// TreeSet is a tree collection compiled once for one graph: it numbers the
// members into slots, tree by tree in Members order, and records per slot
// its tree, host node, parent slot, child→parent directed edge and child
// list, plus the collection's congestion c. Every tree primitive takes a
// set, so a collection swept many times (a prepared instance's cluster
// trees, a request's global tree) pays for its layout once.
//
// A set is immutable after NewTreeSet returns and safe to share across
// goroutines: networks over its graph sweep it read-only and keep their
// sweep state on their own scratch. A primitive handed a set compiled for
// another graph refuses it before charging anything.
type TreeSet struct {
	g      *graph.Graph
	trees  []*graph.Tree
	first  []int32        // per tree, plus a sentinel: tree t owns slots first[t]:first[t+1]
	root   []int32        // per tree: its root's slot
	tree   []int32        // per slot: its tree
	node   []graph.NodeID // per slot: its host node
	parent []int32        // per slot: its parent's slot, -1 at the root
	up     []int32        // per slot: the child→parent directed edge (unused at the root)
	kids   []int32        // per slot, plus a sentinel: offsets into kid
	kid    []int32        // child slots grouped by parent, each group in Members order
	c      int            // congestion: most trees on one directed edge, at least 1
}

// errForeignSet refuses a set compiled for another graph: its directed
// edges would name the wrong links.
var errForeignSet = errors.New("congest: tree set compiled for another graph")

// NewTreeSet compiles trees over g in O(Σ members + n + m). It rejects an
// empty collection (ErrNoTrees), a tree whose root is not among its
// members, and a member whose parent is not. The set keeps its own copy of
// the tree list; the trees themselves are shared and must not change.
func NewTreeSet(g *graph.Graph, trees []*graph.Tree) (*TreeSet, error) {
	k := len(trees)
	if k == 0 {
		return nil, ErrNoTrees
	}
	total := 0
	for _, tr := range trees {
		total += len(tr.Members)
	}
	// One block holds every int32 array of the set, one more the scratch
	// the compile needs: host node → slot (written tree by tree, never
	// cleared) and per-directed-edge tree counts.
	block := make([]int32, 2*k+1+5*total+1)
	cut := func(n int) []int32 {
		s := block[:n:n]
		block = block[n:]
		return s
	}
	s := &TreeSet{
		g:      g,
		trees:  slices.Clone(trees),
		first:  cut(k + 1),
		root:   cut(k),
		tree:   cut(total),
		parent: cut(total),
		up:     cut(total),
		kids:   cut(total + 1),
		kid:    cut(total),
		node:   make([]graph.NodeID, total),
	}
	tmp := make([]int32, g.N()+2*g.M())
	slotOf, use := tmp[:g.N()], tmp[g.N():]

	// Per tree: number its members, then check each one's parent and
	// count, per directed edge, the trees whose child→parent edges use it
	// (the congestion c) and, per slot, its children.
	c := int32(1)
	slot := int32(0)
	for t, tr := range trees {
		first := slot
		s.first[t] = first
		s.root[t] = -1
		for _, v := range tr.Members {
			if v == tr.Root {
				s.root[t] = slot
			}
			slotOf[v] = slot
			s.tree[slot] = int32(t)
			s.node[slot] = v
			slot++
		}
		if s.root[t] == -1 {
			return nil, fmt.Errorf("congest: tree %d does not list its root %d among its members", t, tr.Root)
		}
		for i := first; i < slot; i++ {
			if i == s.root[t] {
				s.parent[i] = -1
				continue
			}
			v := s.node[i]
			p := tr.Parent[v]
			ps := int32(-1)
			if p >= 0 {
				ps = slotOf[p]
			}
			if ps < first || ps >= slot || s.node[ps] != p {
				return nil, fmt.Errorf("congest: member %d of tree %d has parent %d outside the tree", v, t, p)
			}
			up := int32(dirEdge(g, tr.ParentEdge[v], v))
			s.parent[i], s.up[i] = ps, up
			use[up]++
			c = max(c, use[up])
			s.kids[ps+1]++
		}
	}
	s.first[k] = slot
	s.c = int(c)
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
func (s *TreeSet) Len() int { return len(s.trees) }

// Tree returns tree t of the set (shared, read-only).
func (s *TreeSet) Tree(t int) *graph.Tree { return s.trees[t] }

// SizeBytes is the resident size of the compiled arrays, not counting the
// trees the set shares.
func (s *TreeSet) SizeBytes() int64 {
	const header = 256 // the struct and its slice headers
	k, slots := int64(len(s.root)), int64(len(s.node))
	return header + 4*(2*k+1+5*slots+1) + 8*slots + 8*k
}
