package congest

import (
	"fmt"
	"math/rand"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
)

// Agg is a commutative, associative aggregation function over words
// (paper Definition 4: min, sum, logical-AND, ...).
type Agg func(a, b Word) Word

// Standard aggregation functions.
func AggSum(a, b Word) Word { return a + b }
func AggMin(a, b Word) Word {
	if b < a {
		return b
	}
	return a
}
func AggMax(a, b Word) Word {
	if b > a {
		return b
	}
	return a
}
func AggAnd(a, b Word) Word {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}
func AggOr(a, b Word) Word {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// pendingSend is one word waiting to cross a directed edge.
type pendingSend struct {
	tree     int
	from     graph.NodeID
	to       graph.NodeID
	w        Word
	eligible int // earliest round this send may occur
}

// treeSched is the shared store-and-forward scheduler for tree-structured
// communication: per directed edge a FIFO of pending sends, at most one
// crossing per round. The FIFOs live in the network's pooled scratch
// (indexed by directed edge, so lookup is an array access, not a map
// probe) and keep their capacity across schedules.
//
// Ordering invariant: active holds exactly the directed edges with
// nonempty FIFOs, and is processed in ascending order every round. dirty
// is set only when push activates a new edge — the per-round filtering
// preserves sortedness, so the re-sort the map-based scheduler ran every
// step is needed only after pushes (and the insertion sort is then nearly
// linear on the almost-sorted list). The processed order is identical
// either way, which is what keeps charge order and delivery order — and
// therefore every gated metric — byte-identical.
type treeSched struct {
	nw     *Network
	active []int // sorted dirEdges with nonempty queues (aliases scr.schedActive)
	dirty  bool
	round  int
	pushes int // total sends ever queued (sizes the faulty-run round cap)
}

func newTreeSched(nw *Network) *treeSched {
	s := &nw.scr
	if len(s.schedQueues) != 2*nw.g.M() {
		s.schedQueues = make([][]pendingSend, 2*nw.g.M())
		s.schedActive = s.schedActive[:0]
	}
	// A previous schedule abandoned under faults may have left sends
	// queued; schedActive still lists exactly the nonempty FIFOs
	// (push adds an edge, only an emptied edge is dropped), so resetting
	// those restores the all-empty invariant.
	for _, de := range s.schedActive {
		s.schedQueues[de] = s.schedQueues[de][:0]
	}
	return &treeSched{nw: nw, active: s.schedActive[:0]}
}

func (s *treeSched) push(de int, ps pendingSend) {
	q := s.nw.scr.schedQueues[de]
	if len(q) == 0 {
		s.active = append(s.active, de)
		s.dirty = true
	}
	s.nw.scr.schedQueues[de] = append(q, ps)
	s.pushes++
}

// step advances one round, acting on at most one eligible send per directed
// edge (the link carries one word per round) and preserving FIFO order
// otherwise; deliveries are returned so the caller can apply their effects
// (which may enqueue new sends eligible from round+1). Returns false when
// no queue holds any send.
//
// A reliable link delivers the send. Under a fault plan a crashed sender's
// whole queue dies unsent, and otherwise the send's outcome is applied:
// delivered once or twice, swallowed by a crashed receiver, retried next
// round from its FIFO slot, or stalled uncharged until its delay passes.
func (s *treeSched) step(deliver func(ps pendingSend)) bool {
	if len(s.active) == 0 {
		s.nw.scr.schedActive = s.active
		return false
	}
	nw := s.nw
	faults := nw.link.Plan
	if faults != nil && s.round >= s.faultRoundCap() {
		// A fault plan can starve completeness (every remaining send
		// perpetually delayed); abandon the schedule so the primitives'
		// completeness checks report the failure instead of spinning.
		nw.scr.schedActive = s.active
		return false
	}
	nw.checkCancel()
	if s.dirty {
		sortInts(s.active)
		s.dirty = false
	}
	s.round++
	round := nw.metrics.Rounds + 1 // global round in progress: fault decisions key on it
	delivered := nw.scr.schedDelivered[:0]
	queues := nw.scr.schedQueues
	newActive := s.active[:0]
	for _, de := range s.active {
		q := queues[de]
		for i := range q {
			if q[i].eligible > s.round {
				continue
			}
			ps := q[i]
			o := faultinject.Outcome{} // a reliable link delivers
			if faults != nil {
				if nw.link.SenderDown(ps.from, round) {
					// Every send queued on this edge is from the dead node
					// (by the directed-edge encoding); all die unsent.
					nw.link.CrashDrop(len(q))
					q = q[:0]
					break
				}
				o = nw.link.Edge(round, de, ps.to)
			}
			switch o.Action {
			case faultinject.DeliverTwice:
				nw.chargeEdge(de)
				delivered = append(delivered, ps)
				fallthrough // then delivered like any other send
			case faultinject.Deliver:
				nw.chargeEdge(de)
				q = append(q[:i], q[i+1:]...)
				delivered = append(delivered, ps)
			case faultinject.Lost:
				nw.chargeEdge(de)
				q = append(q[:i], q[i+1:]...)
			case faultinject.Retry:
				// Charged and lost; the send keeps its FIFO slot and the link
				// retries it next round. Only a plan that drops forever
				// starves the schedule, and faultRoundCap turns that into a
				// completeness error.
				nw.chargeEdge(de)
			case faultinject.Stall:
				// Nothing crosses: the send keeps its FIFO slot and becomes
				// eligible again after the delay.
				q[i].eligible = s.round + o.Delay
			}
			if o.Action != faultinject.Deliver {
				nw.link.Record(o)
			}
			break
		}
		queues[de] = q
		if len(q) > 0 {
			newActive = append(newActive, de)
		}
	}
	s.active = newActive
	nw.scr.schedActive = newActive
	nw.chargeRound()
	for _, ps := range delivered {
		deliver(ps)
	}
	nw.scr.schedDelivered = delivered
	return true
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// treeCongestion returns the maximum number of trees whose parent edges use
// any single directed edge (the scheduler's congestion parameter c).
// Counting runs over a pooled flat per-directed-edge array.
func (nw *Network) treeCongestion(trees []*graph.Tree) int {
	use := grownI32(nw.scr.edgeUse, 2*nw.g.M())
	nw.scr.edgeUse = use
	for i := range use {
		use[i] = 0
	}
	c := int32(1)
	for _, t := range trees {
		for _, v := range t.Members {
			if t.Parent[v] == -1 {
				continue
			}
			de := nw.dirEdge(t.ParentEdge[v], v)
			use[de]++
			if use[de] > c {
				c = use[de]
			}
		}
	}
	return int(c)
}

// randomDelays draws, for each tree, an initial delay uniform in [0, c)
// (Ghaffari'15-style random-delay scheduling). With delays disabled all
// trees start immediately. The returned slice is pooled scratch, valid
// until the next primitive on this network; the RNG draw sequence is
// identical to the historical allocating version. The network's only RNG
// consumer, it seeds the source on the first draw, so a network that never
// draws (a Prepare-time setup network) never builds one.
func (nw *Network) randomDelays(k, c int) []int {
	delays := grownInts(nw.scr.delayBuf, k)
	nw.scr.delayBuf = delays
	for i := range delays {
		delays[i] = 0
	}
	if nw.opts.DisableRandomDelays || c <= 1 {
		return delays
	}
	if nw.rng == nil {
		nw.rng = rand.New(rand.NewSource(nw.opts.Seed))
	}
	for i := range delays {
		delays[i] = nw.rng.Intn(c)
	}
	return delays
}

// ccState is the dense convergecast working state over (tree, node) slots:
// slot t*n+v holds node v's remaining child count and running subtree
// accumulator in tree t. Slots are valid only when stamped with the
// current epoch, so no O(k·n) clearing happens per call.
type ccState struct {
	n       int
	pending []int32
	acc     []Word
	stamp   []uint32
	epoch   uint32
}

func (nw *Network) ccStateFor(trees []*graph.Tree) ccState {
	n := nw.g.N()
	kn := len(trees) * n
	s := &nw.scr
	epoch := s.nextEpoch(kn)
	s.ccPending = grownI32(s.ccPending, kn)
	s.ccAcc = grownWords(s.ccAcc, kn)
	return ccState{n: n, pending: s.ccPending, acc: s.ccAcc, stamp: s.ccStamp, epoch: epoch}
}

// initConvergecast seeds the dense state for one convergecast pass: every
// member's accumulator starts at val(t, v), its pending count at its child
// count, and the leaves' initial sends are pushed. Identical visit order
// (tree-members order) and push order to the historical map-based setup.
func (st *ccState) initConvergecast(
	nw *Network, sched *treeSched, trees []*graph.Tree, delays []int,
	val func(t int, v graph.NodeID) Word,
) {
	for t, tr := range trees {
		base := t * st.n
		for _, v := range tr.Members {
			i := base + v
			st.stamp[i] = st.epoch
			st.pending[i] = 0
			st.acc[i] = val(t, v)
		}
		for _, v := range tr.Members {
			if p := tr.Parent[v]; p != -1 {
				st.pending[base+p]++
			}
		}
		// Leaves are immediately ready to send to their parents.
		for _, v := range tr.Members {
			i := base + v
			if st.pending[i] == 0 && v != tr.Root {
				sched.push(nw.dirEdge(tr.ParentEdge[v], v), pendingSend{
					tree: t, from: v, to: tr.Parent[v], w: st.acc[i],
					eligible: 1 + delays[t],
				})
			}
		}
	}
}

// deliverUp folds one delivered send into the receiver's accumulator and
// forwards the receiver's total when its subtree completes — the upward
// half of every convergecast.
func (st *ccState) deliverUp(nw *Network, sched *treeSched, trees []*graph.Tree, agg Agg, ps pendingSend) {
	tr := trees[ps.tree]
	i := ps.tree*st.n + ps.to
	st.acc[i] = agg(st.acc[i], ps.w)
	st.pending[i]--
	if st.pending[i] == 0 && ps.to != tr.Root {
		sched.push(nw.dirEdge(tr.ParentEdge[ps.to], ps.to), pendingSend{
			tree: ps.tree, from: ps.to, to: tr.Parent[ps.to], w: st.acc[i],
			eligible: sched.round + 1,
		})
	}
}

// ConvergecastMany aggregates, concurrently for every tree, the value
// val(t, v) over the tree's members using agg, delivering the result to each
// tree's root. Trees may share graph edges; every directed edge carries at
// most one word per round, so the measured cost is the true scheduled
// makespan (O(congestion + depth) with random delays, up to log factors).
// Returns the per-tree root aggregates. Aside from the returned slice, a
// steady-state call runs entirely on pooled flat state: cost
// Θ(Σ members + scheduled rounds), zero allocation after warmup.
func (nw *Network) ConvergecastMany(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	if len(trees) == 0 {
		return nil, ErrNoTrees
	}
	st := nw.ccStateFor(trees)
	sched := newTreeSched(nw)
	delays := nw.randomDelays(len(trees), nw.treeCongestion(trees))
	st.initConvergecast(nw, sched, trees, delays, val)
	deliver := func(ps pendingSend) { st.deliverUp(nw, sched, trees, agg, ps) }
	for sched.step(deliver) {
	}
	out := make([]Word, len(trees))
	for t, tr := range trees {
		i := t*st.n + tr.Root
		if st.stamp[i] != st.epoch || st.pending[i] != 0 {
			return nil, fmt.Errorf("congest: convergecast of tree %d did not complete", t)
		}
		out[t] = st.acc[i]
	}
	return out, nil
}

// bcSeen marks (tree, node) receipt with the current epoch; returns whether
// it was already marked.
func (nw *Network) bcSeen(t int, v graph.NodeID) bool {
	i := t*nw.g.N() + v
	if nw.scr.bcStamp[i] == nw.scr.epoch {
		return true
	}
	nw.scr.bcStamp[i] = nw.scr.epoch
	return false
}

// BroadcastMany propagates, concurrently for every tree, the root value
// rootVal[t] to all members. on(t, v, w) is invoked once per member with the
// received value (including the root itself at round 0). Cost accounting is
// identical to ConvergecastMany; like it, a steady-state call allocates
// nothing.
func (nw *Network) BroadcastMany(
	trees []*graph.Tree,
	rootVal []Word,
	on func(t int, v graph.NodeID, w Word),
) error {
	if len(trees) == 0 {
		return ErrNoTrees
	}
	if len(rootVal) != len(trees) {
		return fmt.Errorf("congest: %d root values for %d trees", len(rootVal), len(trees))
	}
	k := len(trees)
	nw.scr.nextEpoch(k * nw.g.N())
	sched := newTreeSched(nw)
	delays := nw.randomDelays(k, nw.treeCongestion(trees))
	ci := nw.buildChildIndex(trees)
	received := grownInts(nw.scr.recvCount, k)
	nw.scr.recvCount = received
	for i := range received {
		received[i] = 0
	}

	fanOut := func(t int, v graph.NodeID, w Word, eligible int) {
		for _, c := range ci.children(t, v) {
			sched.push(nw.dirEdge(trees[t].ParentEdge[c], v), pendingSend{
				tree: t, from: v, to: c, w: w, eligible: eligible,
			})
		}
	}
	for t, tr := range trees {
		nw.bcSeen(t, tr.Root)
		received[t]++
		on(t, tr.Root, rootVal[t])
		fanOut(t, tr.Root, rootVal[t], 1+delays[t])
	}
	deliver := func(ps pendingSend) {
		if nw.bcSeen(ps.tree, ps.to) {
			return
		}
		received[ps.tree]++
		on(ps.tree, ps.to, ps.w)
		fanOut(ps.tree, ps.to, ps.w, sched.round+1)
	}
	for sched.step(deliver) {
	}

	for t, tr := range trees {
		if received[t] != len(tr.Members) {
			return fmt.Errorf("congest: broadcast of tree %d reached %d of %d members",
				t, received[t], len(tr.Members))
		}
	}
	return nil
}

// AggregateMany runs a full part-wise aggregation round-trip on every tree:
// convergecast of val under agg to the root, then broadcast of the result
// back to all members. It returns the per-tree aggregates (which, after the
// call, every member of the corresponding tree knows). This realizes
// Proposition 6's "solve part-wise aggregation given trees of the shortcut
// subgraphs".
//
// Charges O(c·(maxdepth + log k)) rounds for congestion c over k trees
// (random-delay scheduling; see treeCongestion). Deterministic for a fixed
// network seed: scheduling draws come from the network RNG in canonical
// tree order. Scheduler queues and dense sweep state are pooled — steady
// state allocates only the returned []Word (pinned by
// TestAggregateManySteadyStateAllocs).
func (nw *Network) AggregateMany(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	up, err := nw.ConvergecastMany(trees, val, agg)
	if err != nil {
		return nil, err
	}
	if err := nw.BroadcastMany(trees, up, func(int, graph.NodeID, Word) {}); err != nil {
		return nil, err
	}
	return up, nil
}
