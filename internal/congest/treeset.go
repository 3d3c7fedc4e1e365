package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"distlap/internal/graph"
)

// TreeSet is a tree collection compiled once for one graph: it numbers the
// members into slots, tree by tree, member i of tree t at slot First(t)+i,
// and records per slot its tree, host node, parent slot, child→parent link
// and child list, plus the collection's congestion c. A link is one
// direction of one host edge the trees use: the set lists those edges in
// ascending order, and link 2·r + d is direction d (0 for U→V) of the
// r-th, so ascending links are ascending directed edges and the tree
// scheduler's send store needs one FIFO per link, not one per directed
// edge of the host. Every slot array is int32, host nodes included (a
// graph has at most math.MaxInt32 nodes). Every tree primitive takes a
// set, so a collection swept many times (a prepared instance's cluster
// trees, a request's global tree) pays for its layout once. The set is
// all a compiled collection keeps: its size is proportional to Σ members,
// and the part trees it was compiled from are not retained.
//
// A set is immutable after NewTreeSet returns and safe to share across
// goroutines: networks over its graph sweep it read-only and keep their
// sweep state on their own scratch. A primitive handed a set compiled for
// another graph refuses it before charging anything.
type TreeSet struct {
	g      *graph.Graph
	first  []int32 // per tree, plus a sentinel: tree t owns slots first[t]:first[t+1], its root first
	tree   []int32 // per slot: its tree
	node   []int32 // per slot: its host node
	parent []int32 // per slot: its parent's slot, -1 at the root
	up     []int32 // per slot: the child→parent link (unused at the root)
	edges  []int32 // the host edges the trees use, ascending: link l crosses edges[l>>1]
	kids   []int32 // per slot, plus a sentinel: offsets into kid
	kid    []int32 // child slots grouped by parent, each group in slot order
	c      int     // congestion: most trees on one directed edge, at least 1
}

// errForeignSet refuses a set compiled for another graph: its links would
// name the wrong edges.
var errForeignSet = errors.New("congest: tree set compiled for another graph")

// NewTreeSet compiles trees over g in O(Σ members) and allocates nothing
// the size of g. It rejects an empty collection (ErrNoTrees), an empty
// tree, and a member whose parent does not come before it in its tree
// (the root, member 0, has parent -1).
//
// The congestion c is the longest run of equal directed edges among the
// members' up edges sorted (k for one tree repeated k times, a batched
// global sum); the same order gives the links (linkUses).
func NewTreeSet(g *graph.Graph, trees []*graph.PartTree) (*TreeSet, error) {
	k := len(trees)
	if k == 0 {
		return nil, ErrNoTrees
	}
	total := 0
	for _, tr := range trees {
		total += len(tr.Members)
	}
	// One block holds every slot array of the set but the nodes.
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
		node:   make([]int32, total),
		parent: cut(total),
		up:     cut(total),
		kids:   cut(total + 1),
		kid:    cut(total),
	}
	// up holds directed edges until they become links; kid lists the
	// members with a parent, and kids is linkUses' scratch, until the
	// child lists fill them.
	uses := s.kid[:0]
	slot := int32(0)
	for t, tr := range trees {
		if len(tr.Members) == 0 {
			return nil, fmt.Errorf("congest: tree %d has no members", t)
		}
		first := slot
		s.first[t] = first
		for i, v := range tr.Members {
			s.tree[slot] = int32(t)
			s.node[slot] = int32(v)
			s.parent[slot] = -1
			if p := tr.Parent[i]; i > 0 || p != -1 {
				if p < 0 || int(p) >= i {
					return nil, fmt.Errorf("congest: member %d of tree %d has parent %d outside the tree", v, t, p)
				}
				s.parent[slot] = first + p
				s.up[slot] = int32(dirEdge(g, graph.EdgeID(tr.ParentEdge[i]), v))
				uses = append(uses, slot)
			}
			slot++
		}
	}
	s.first[k] = slot
	edges, c := linkUses(s.up, uses, s.kids[:len(uses)])
	s.edges, s.c = slices.Clone(edges), c
	// Child lists: count, prefix-sum, then fill in slot order using each
	// parent's offset as its cursor, which leaves kids shifted by one.
	clear(s.kids)
	for _, p := range s.parent {
		if p != -1 {
			s.kids[p+1]++
		}
	}
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

// linkUses turns uses of directed edges into links, in place: de[u] is the
// directed edge use u crosses, uses lists the uses to link, each once, and
// buf is scratch as long as uses. It sorts uses by directed edge with a
// stable LSD radix sort over 8-bit digits (one pass per byte of the
// largest edge, at most four, with no comparisons), then walks them in
// that order: each use's directed edge becomes its link, the distinct host
// edges are listed in ascending order at the front of whichever of uses
// and buf the sort left free, and that list is returned with c, the most
// uses of one directed edge (at least 1). It allocates nothing.
func linkUses(de, uses, buf []int32) (edges []int32, c int) {
	top := int32(0)
	for _, u := range uses {
		top = max(top, de[u])
	}
	for shift := 0; shift < bits.Len32(uint32(top)); shift += 8 {
		var start [257]int32 // digit d's uses go to buf[start[d]:start[d+1]]
		for _, u := range uses {
			start[(de[u]>>shift)&0xff+1]++
		}
		for d := 0; d < 256; d++ {
			start[d+1] += start[d]
		}
		for _, u := range uses {
			d := (de[u] >> shift) & 0xff
			buf[start[d]] = u
			start[d]++
		}
		uses, buf = buf, uses
	}
	edges, c = buf[:0], 1
	prev, run := int32(-1), 0
	for _, u := range uses {
		e := de[u]
		if e != prev {
			if h := e >> 1; len(edges) == 0 || edges[len(edges)-1] != h {
				edges = append(edges, h)
			}
			prev, run = e, 0
		}
		run++
		c = max(c, run)
		de[u] = int32(2*(len(edges)-1)) | e&1
	}
	return edges, c
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
func (s *TreeSet) Members(t int) []int32 { return s.node[s.first[t]:s.first[t+1]] }

// Node returns slot i's host node.
func (s *TreeSet) Node(i int) graph.NodeID { return graph.NodeID(s.node[i]) }

// ParentEdge returns the host edge from slot i to its parent (the edge
// its up link crosses), or -1 at a root.
func (s *TreeSet) ParentEdge(i int) graph.EdgeID {
	if s.parent[i] == -1 {
		return -1
	}
	return graph.EdgeID(s.edges[s.up[i]>>1])
}

// SizeBytes is the resident size of the set: its struct and its arrays.
func (s *TreeSet) SizeBytes() int64 {
	const header = 256 // the struct and its slice headers
	k, slots := int64(s.Len()), int64(len(s.node))
	return header + 4*(k+1+6*slots+1) + 4*int64(len(s.edges))
}
