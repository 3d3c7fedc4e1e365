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

// ConvergecastAll is ConvergecastMany that additionally exposes, per tree,
// every member's subtree aggregate (the value the member forwarded to its
// parent — physically known to both endpoints after the pass). Tree solvers
// (internal/core's tree and Schwarz preconditioners) need these per-edge
// partial aggregates, not just the root total.
//
// subtree[t] is a dense per-node row: subtree[t][v] is node v's aggregate in
// tree t, defined only for v in trees[t].Members (other slots hold stale
// scratch). The rows alias the network's pooled convergecast state and stay
// valid until the next convergecast-family primitive on this network
// (broadcasts and down-sweeps do not touch them); copy to retain longer.
func (nw *Network) ConvergecastAll(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) (roots []Word, subtree [][]Word, err error) {
	if len(trees) == 0 {
		return nil, nil, ErrNoTrees
	}
	k := len(trees)
	st := nw.convergecast(trees, val, agg)
	roots = make([]Word, k)
	subtree = make([][]Word, k)
	for t, tr := range trees {
		row := st.acc[t*st.n : (t+1)*st.n]
		for _, v := range tr.Members {
			if st.pending[t*st.n+v] != 0 {
				return nil, nil, fmt.Errorf("congest: convergecast of tree %d stuck at node %d", t, v)
			}
		}
		subtree[t] = row
		roots[t] = row[tr.Root]
	}
	return roots, subtree, nil
}

// DownSweepMany propagates values from each tree root toward the leaves,
// transforming per hop: the parent computes next(t, parent, child,
// parentVal) — a function of locally-known state — and sends the result to
// the child. on fires at every member with its received (or, for the root,
// initial) value. This is the downward pass of distributed tree solvers.
// Like the other tree primitives it runs on pooled flat state (child index,
// receipt stamps, scheduler FIFOs) and allocates nothing at steady state.
func (nw *Network) DownSweepMany(
	trees []*graph.Tree,
	rootVal []Word,
	next func(t int, parent, child graph.NodeID, parentVal Word) Word,
	on func(t int, v graph.NodeID, w Word),
) error {
	return nw.sweepDown("down-sweep", trees, rootVal, next, on)
}
