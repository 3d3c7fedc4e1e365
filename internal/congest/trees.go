package congest

import (
	"fmt"
	"math/rand"
	"slices"

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

// pendingSend is one word waiting to cross a directed edge. id tells the
// receiver what the word is for: its own layout slot in the tree
// primitives, the packet index in RouteMany.
type pendingSend struct {
	id       int32
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
// preserves sortedness, so a re-sort is needed only after pushes. The list
// holds distinct edges, so any sort yields the same processed order, which
// is what keeps charge order and delivery order — and therefore every
// gated metric — byte-identical.
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
		slices.Sort(s.active)
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

// randomDelays draws, for each tree, an initial delay uniform in [0, c)
// (Ghaffari'15-style random-delay scheduling). With delays disabled all
// trees start immediately. The returned slice is pooled scratch, valid
// until the next primitive on this network; the RNG draw sequence is
// identical to the historical allocating version. The network's only RNG
// consumer, it seeds the source on the first draw, so a network that never
// draws (a Prepare-time setup network) never builds one.
func (nw *Network) randomDelays(k, c int) []int {
	delays := grown(nw.scr.delayBuf, k)
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

// sweepUp is the one upward body of the tree primitives: a scheduled
// convergecast of val under agg on every tree of l. It leaves each slot's
// subtree aggregate in l.acc and its unheard children in l.pending; the
// primitives differ only in how they check that state for completion.
func (nw *Network) sweepUp(l *layout, val func(t int, v graph.NodeID) Word, agg Agg) {
	sched := newTreeSched(nw)
	delays := nw.randomDelays(len(l.root), l.c)
	for i, v := range l.node {
		l.acc[i] = val(int(l.tree[i]), v)
		l.pending[i] = l.kids[i+1] - l.kids[i]
	}
	// Leaves are immediately ready to send to their parents.
	for i, p := range l.parent {
		if l.pending[i] == 0 && p != -1 {
			sched.push(int(l.up[i]), pendingSend{
				id: p, from: l.node[i], to: l.node[p], w: l.acc[i],
				eligible: 1 + delays[l.tree[i]],
			})
		}
	}
	// A delivered word folds into the receiver's accumulator; a receiver
	// whose subtree is complete forwards its total to its parent.
	deliver := func(ps pendingSend) {
		i := ps.id
		l.acc[i] = agg(l.acc[i], ps.w)
		l.pending[i]--
		if p := l.parent[i]; l.pending[i] == 0 && p != -1 {
			sched.push(int(l.up[i]), pendingSend{
				id: p, from: ps.to, to: l.node[p], w: l.acc[i],
				eligible: sched.round + 1,
			})
		}
	}
	for sched.step(deliver) {
	}
}

// rootTotals returns each tree's root aggregate after sweepUp, or an error
// for the first tree whose root has not heard from every child.
func (l *layout) rootTotals() ([]Word, error) {
	out := make([]Word, len(l.root))
	for t, i := range l.root {
		if l.pending[i] != 0 {
			return nil, fmt.Errorf("congest: convergecast of tree %d did not complete", t)
		}
		out[t] = l.acc[i]
	}
	return out, nil
}

// ConvergecastMany aggregates, concurrently for every tree, the value
// val(t, v) over the tree's members using agg, delivering the result to each
// tree's root. Trees may share graph edges; every directed edge carries at
// most one word per round, so the measured cost is the true scheduled
// makespan (O(congestion + depth) with random delays, up to log factors).
// Returns the per-tree root aggregates. Aside from the returned slice, a
// steady-state call runs entirely on pooled member-slot state: cost
// Θ(Σ members + scheduled rounds), zero allocation after warmup.
func (nw *Network) ConvergecastMany(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	l, err := nw.layoutFor(trees)
	if err != nil {
		return nil, err
	}
	nw.sweepUp(l, val, agg)
	return l.rootTotals()
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
	l, err := nw.layoutFor(trees)
	if err != nil {
		return err
	}
	if len(rootVal) != len(trees) {
		return fmt.Errorf("congest: %d root values for %d trees", len(rootVal), len(trees))
	}
	return nw.sweepDown("broadcast", l, func(t int, _ Word) Word { return rootVal[t] }, nil, on)
}

// sweepDown is the one downward body of the tree primitives: every root
// sends rootVal(t, its l.acc entry) toward its leaves, one scheduled hop
// per tree edge, and on(t, v, w) fires once at every member with the value
// it received (the root at round 0). A parent sends each child
// next(t, parent, child, parentVal, childSub), where childSub is the
// child's l.acc entry; a nil next forwards the parent's own value. A
// duplicated delivery is dropped by the receiver's seen mark. what names
// the primitive in the completion error.
func (nw *Network) sweepDown(
	what string,
	l *layout,
	rootVal func(t int, total Word) Word,
	next func(t int, parent, child graph.NodeID, parentVal, childSub Word) Word,
	on func(t int, v graph.NodeID, w Word),
) error {
	sched := newTreeSched(nw)
	delays := nw.randomDelays(len(l.root), l.c)
	clear(l.seen)
	clear(l.got)
	fanOut := func(i int32, w Word, eligible int) {
		for _, c := range l.kid[l.kids[i]:l.kids[i+1]] {
			cw := w
			if next != nil {
				cw = next(int(l.tree[i]), l.node[i], l.node[c], w, l.acc[c])
			}
			// The parent→child directed edge is the child's up edge reversed.
			sched.push(int(l.up[c]^1), pendingSend{
				id: c, from: l.node[i], to: l.node[c], w: cw, eligible: eligible,
			})
		}
	}
	for t, i := range l.root {
		w := rootVal(t, l.acc[i])
		l.seen[i] = true
		l.got[t]++
		on(t, l.node[i], w)
		fanOut(i, w, 1+delays[t])
	}
	deliver := func(ps pendingSend) {
		i := ps.id
		if l.seen[i] {
			return
		}
		l.seen[i] = true
		t := int(l.tree[i])
		l.got[t]++
		on(t, ps.to, ps.w)
		fanOut(i, ps.w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	for t, got := range l.got {
		if members := int(l.first[t+1] - l.first[t]); got != members {
			return fmt.Errorf("congest: %s of tree %d reached %d of %d members", what, t, got, members)
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
// (random-delay scheduling; see layoutFor). Deterministic for a fixed
// network seed: scheduling draws come from the network RNG in canonical
// tree order, once per half. The layout is built once for both halves, and
// it and the scheduler queues are pooled — steady state allocates only the
// returned []Word (pinned by TestAggregateManySteadyStateAllocs).
func (nw *Network) AggregateMany(
	trees []*graph.Tree,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	l, err := nw.layoutFor(trees)
	if err != nil {
		return nil, err
	}
	nw.sweepUp(l, val, agg)
	up, err := l.rootTotals()
	if err != nil {
		return nil, err
	}
	forward := func(_ int, total Word) Word { return total }
	if err := nw.sweepDown("broadcast", l, forward, nil, func(int, graph.NodeID, Word) {}); err != nil {
		return nil, err
	}
	return up, nil
}
