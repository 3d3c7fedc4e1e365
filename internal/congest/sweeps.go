package congest

import (
	"fmt"
	"math"

	"distlap/internal/graph"
)

// FloatWord packs a float64 into a message word (one float per O(log n)-bit
// message, the standard CONGEST convention for numerical algorithms). This
// is the sanctioned bit-level encoder the wordtrunc analyzer points cast
// sites at: the uint64 -> Word reinterpretation below is exact (all 64 bits
// preserved) and WordFloat inverts it bit-for-bit.
func FloatWord(f float64) Word {
	//distlint:allow wordtrunc sanctioned encoder: Float64bits reinterpretation is exact and WordFloat inverts it
	return Word(math.Float64bits(f))
}

// WordFloat unpacks a float64 from a message word.
func WordFloat(w Word) float64 { return math.Float64frombits(uint64(w)) }

// UpDownMany runs the two passes of a distributed tree solver,
// concurrently over every tree of s: a convergecast of val under agg, then
// a transforming sweep from each root toward the leaves. The root of tree t
// starts the downward pass with rootVal(t, total), where total is its
// subtree aggregate; a parent slot sends each child slot down(t, parent,
// child, parentVal, childSub), a function of what both endpoints know
// after the upward pass (childSub is the aggregate the child forwarded).
// on(t, i, w) fires once at every slot i with the value it received, the
// root first. Slots are the set's (TreeSet.First, Node, ParentEdge).
//
// Every member must finish the upward pass ("stuck at node" otherwise)
// before the downward one starts. Each pass draws its random delays as a
// separate primitive would. A steady-state call allocates nothing.
func (nw *Network) UpDownMany(
	s *TreeSet,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
	rootVal func(t int, total Word) Word,
	down func(t, parent, child int, parentVal, childSub Word) Word,
	on func(t, i int, w Word),
) error {
	if err := nw.sweepFor(s); err != nil {
		return err
	}
	nw.sweepUp(s, val, agg)
	for i, left := range nw.scr.pending {
		if left != 0 {
			return fmt.Errorf("congest: convergecast of tree %d stuck at node %d", s.tree[i], s.node[i])
		}
	}
	return nw.sweepDown("down-sweep", s, rootVal, down, on)
}
