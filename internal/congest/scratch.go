package congest

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

	// Tree scheduler (treeSched): the send store holding every directed
	// edge's FIFO, the ordered set of the nonempty ones and the per-round
	// delivered batch. Its set also names the FIFOs an abandoned (faulty)
	// schedule left nonempty, so the next schedule resets exactly those.
	sched sendStore

	// randomDelays: the per-tree delay vector.
	delayBuf []int

	// The tree primitives' sweep state, grown to the swept set's slot
	// count. Upward: each slot's running subtree aggregate and the
	// children it has not heard from. Both ways: each slot's receipt mark
	// (its word reached its parent going up, its parent's word reached it
	// going down). Downward: per tree the members reached.
	acc     []Word
	pending []int32
	seen    []bool
	got     []int
}

// grown returns buf resized to n, reallocating only on growth. The
// contents are not cleared: callers overwrite or clear what they read.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
