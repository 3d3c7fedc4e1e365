package congest

import "distlap/internal/graph"

// scratch is the Network's pooled working memory: every buffer the engine
// primitives previously allocated per call, hoisted onto the (request-
// private, single-goroutine) network so steady-state rounds allocate
// nothing. All of it is dead between primitive calls — no buffer carries
// information from one call into the next, and none of it ever feeds the
// RNG or the charge counters, so pooling cannot perturb determinism.
//
// Invalidation contract: slices handed out by primitives that alias these
// pools (ConvergecastAll's subtree view) are valid until the next tree
// primitive that uses the same pool family; the per-primitive doc comments
// state which. Callers that need longer retention must copy.
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

	// treeCongestion: per-directed-edge usage counts.
	edgeUse []int32

	// randomDelays: the per-tree delay vector.
	delayBuf []int

	// Convergecast state, dense over (tree, node) with epoch-stamped
	// validity (no O(k·n) clearing): child counts still pending, and the
	// running subtree accumulator.
	ccPending []int32
	ccAcc     []Word
	ccStamp   []uint32

	// Broadcast / down-sweep state: epoch-stamped received marks, per-tree
	// received counts, and the flat child index (per-tree CSR offsets into
	// a shared child list, with a fill cursor).
	bcStamp   []uint32
	recvCount []int
	ciStart   []int32
	ciNext    []int32
	ciList    []graph.NodeID

	// epoch is the stamp value identifying the current primitive call;
	// incremented at the start of every primitive that uses stamped state.
	epoch uint32
}

// grownI32 returns buf resized to n (reallocating only on growth).
func grownI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// grownU32 returns buf resized to n (reallocating only on growth). The
// contents are NOT cleared: stamped users must bump their epoch instead.
// A fresh (zeroed) allocation is always valid because epochs start at 1.
func grownU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// grownWords returns buf resized to n (reallocating only on growth).
func grownWords(buf []Word, n int) []Word {
	if cap(buf) < n {
		return make([]Word, n)
	}
	return buf[:n]
}

// grownInts returns buf resized to n (reallocating only on growth).
func grownInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// grownNodes returns buf resized to n (reallocating only on growth).
func grownNodes(buf []graph.NodeID, n int) []graph.NodeID {
	if cap(buf) < n {
		return make([]graph.NodeID, n)
	}
	return buf[:n]
}

// nextEpoch advances and returns the scratch epoch, growing the stamped
// arrays to k·n entries. Epoch 0 is never current, so freshly grown
// (zeroed) stamp arrays read as "stale" everywhere — exactly the
// uninitialized semantics the dense sweep state needs.
func (s *scratch) nextEpoch(kn int) uint32 {
	s.epoch++
	s.ccStamp = grownU32(s.ccStamp, kn)
	s.bcStamp = grownU32(s.bcStamp, kn)
	if s.epoch == 0 { // wrapped: invalidate everything explicitly
		for i := range s.ccStamp {
			s.ccStamp[i] = 0
		}
		for i := range s.bcStamp {
			s.bcStamp[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// childIndex is the flat per-call child index over a tree collection:
// children of node v in tree t occupy list[start[t*(n+1)+v] :
// start[t*(n+1)+v+1]], in the same order Tree.Children would list them
// (tree-members order). Offsets are absolute into list.
type childIndex struct {
	n     int
	start []int32
	list  []graph.NodeID
}

func (ci *childIndex) children(t int, v graph.NodeID) []graph.NodeID {
	base := t*(ci.n+1) + v
	return ci.list[ci.start[base]:ci.start[base+1]]
}

// buildChildIndex flattens the child lists of every tree into pooled
// storage: count, prefix-sum, fill in members order — the exact per-parent
// order the historical per-call Tree.Children allocation produced.
func (nw *Network) buildChildIndex(trees []*graph.Tree) childIndex {
	n := nw.g.N()
	k := len(trees)
	total := 0
	for _, tr := range trees {
		total += len(tr.Members)
	}
	s := &nw.scr
	s.ciStart = grownI32(s.ciStart, k*(n+1))
	s.ciNext = grownI32(s.ciNext, n)
	s.ciList = grownNodes(s.ciList, total)
	pos := int32(0)
	for t, tr := range trees {
		row := s.ciStart[t*(n+1) : (t+1)*(n+1)]
		for i := range row {
			row[i] = 0
		}
		for _, v := range tr.Members {
			if p := tr.Parent[v]; p != -1 {
				row[p+1]++
			}
		}
		row[0] = pos
		for v := 0; v < n; v++ {
			row[v+1] += row[v]
		}
		next := s.ciNext[:n]
		copy(next, row[:n])
		for _, v := range tr.Members {
			if p := tr.Parent[v]; p != -1 {
				s.ciList[next[p]] = v
				next[p]++
			}
		}
		pos = row[n]
	}
	return childIndex{n: n, start: s.ciStart, list: s.ciList[:pos]}
}
