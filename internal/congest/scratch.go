package congest

import (
	"fmt"

	"distlap/internal/graph"
)

// scratch is the Network's pooled working memory: every buffer the engine
// primitives previously allocated per call, hoisted onto the (request-
// private, single-goroutine) network so steady-state rounds allocate
// nothing. All of it is dead between primitive calls — no buffer carries
// information from one call into the next, and none of it ever feeds the
// RNG or the charge counters, so pooling cannot perturb determinism. No
// primitive returns a view of it.
type scratch struct {
	// Exchange: the per-round delivery batch, and the sends a fault plan
	// dropped this round, retransmitted next round (touched only after a
	// drop, so reliable networks never allocate it).
	deliveries []delivery
	retry      []transmission

	// Tree scheduler (treeSched): per-directed-edge FIFOs, the sorted
	// active-edge list, and the per-round delivered batch. Queues keep
	// their capacity across schedules; schedActive tracks which FIFOs may
	// hold leftovers from an abandoned (faulty) schedule so the next
	// schedule can reset exactly those.
	schedQueues    [][]pendingSend
	schedActive    []int
	schedDelivered []pendingSend

	// randomDelays: the per-tree delay vector.
	delayBuf []int

	// The tree primitives' member layout and sweep state, and the two
	// host-sized arrays that build it: host node → slot (written tree by
	// tree, never cleared) and per-directed-edge tree counts (all zero
	// between calls).
	lay     layout
	slotOf  []int32
	edgeUse []int32
}

// grown returns buf resized to n, reallocating only on growth. The
// contents are not cleared: callers overwrite or clear what they read.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// layout numbers the members of one call's tree collection: slot s is the
// s-th member counted tree by tree in Members order, so every per-member
// array below is Σ members long and a call costs Θ(Σ members + scheduled
// rounds), never k·n.
type layout struct {
	first  []int32        // per tree, plus a sentinel: tree t owns slots first[t]:first[t+1]
	root   []int32        // per tree: its root's slot
	tree   []int32        // per slot: its tree
	node   []graph.NodeID // per slot: its host node
	parent []int32        // per slot: its parent's slot, -1 at the root
	up     []int32        // per slot: the child→parent directed edge (unused at the root)
	kids   []int32        // per slot, plus a sentinel: offsets into kid
	kid    []int32        // child slots grouped by parent, each group in Members order
	c      int            // congestion: most trees on one directed edge, at least 1

	// Sweep state. Upward: each slot's running subtree aggregate and the
	// children it has not heard from. Downward: each slot's receipt mark,
	// and per tree the members reached.
	acc     []Word
	pending []int32
	seen    []bool
	got     []int
}

// layoutFor builds the pooled layout of trees in O(Σ members). It rejects
// an empty collection (ErrNoTrees), a tree whose root is not among its
// members, and a member whose parent is not. The per-edge counts behind
// the congestion c are reset by walking the same edges again, so the
// 2m-entry array is never cleared.
func (nw *Network) layoutFor(trees []*graph.Tree) (*layout, error) {
	k := len(trees)
	if k == 0 {
		return nil, ErrNoTrees
	}
	s := &nw.scr
	l := &s.lay
	total := 0
	for _, tr := range trees {
		total += len(tr.Members)
	}
	l.first = grown(l.first, k+1)
	l.root = grown(l.root, k)
	l.tree = grown(l.tree, total)
	l.node = grown(l.node, total)
	l.parent = grown(l.parent, total)
	l.up = grown(l.up, total)
	l.kids = grown(l.kids, total+1)
	l.kid = grown(l.kid, total)
	s.slotOf = grown(s.slotOf, nw.g.N())
	slotOf := s.slotOf

	slot := int32(0)
	for t, tr := range trees {
		first := slot
		l.first[t] = first
		l.root[t] = -1
		for _, v := range tr.Members {
			if v == tr.Root {
				l.root[t] = slot
			}
			slotOf[v] = slot
			l.tree[slot] = int32(t)
			l.node[slot] = v
			slot++
		}
		if l.root[t] == -1 {
			return nil, fmt.Errorf("congest: tree %d does not list its root %d among its members", t, tr.Root)
		}
		for i := first; i < slot; i++ {
			if i == l.root[t] {
				l.parent[i] = -1
				continue
			}
			v := l.node[i]
			p := tr.Parent[v]
			ps := int32(-1)
			if p >= 0 {
				ps = slotOf[p]
			}
			if ps < first || ps >= slot || l.node[ps] != p {
				return nil, fmt.Errorf("congest: member %d of tree %d has parent %d outside the tree", v, t, p)
			}
			l.parent[i] = ps
			l.up[i] = int32(nw.dirEdge(tr.ParentEdge[v], v))
		}
	}
	l.first[k] = slot

	// One pass counts, per directed edge, the trees whose child→parent
	// edges use it (the congestion c), and per slot its children. The
	// fill pass resets the edge counts by walking the same edges.
	s.edgeUse = grown(s.edgeUse, 2*nw.g.M())
	use := s.edgeUse
	c := int32(1)
	clear(l.kids)
	for i, p := range l.parent {
		if p != -1 {
			use[l.up[i]]++
			c = max(c, use[l.up[i]])
			l.kids[p+1]++
		}
	}
	l.c = int(c)
	// Child lists: prefix-sum the counts, then fill in slot order using
	// each parent's offset as its cursor, which leaves kids shifted by one.
	for i := 1; i <= total; i++ {
		l.kids[i] += l.kids[i-1]
	}
	for i, p := range l.parent {
		if p != -1 {
			use[l.up[i]] = 0
			l.kid[l.kids[p]] = int32(i)
			l.kids[p]++
		}
	}
	copy(l.kids[1:], l.kids[:total])
	l.kids[0] = 0

	l.acc = grown(l.acc, total)
	l.pending = grown(l.pending, total)
	l.seen = grown(l.seen, total)
	l.got = grown(l.got, k)
	return l, nil
}
