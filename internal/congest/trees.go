package congest

import (
	"fmt"
	"math/bits"
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

// send is one word waiting to cross a link, a node of that link's FIFO in
// the scheduler's send store. id tells the receiver what the word is for:
// the set slot of the tree edge's child end in the tree primitives (the
// sender going up, the receiver going down), the packet index in
// RouteMany. The endpoints are the link's, so a send does not carry them.
type send struct {
	id       int32
	next     int32 // the link's next send in push order; 0 ends the FIFO
	w        Word
	eligible int // earliest round this send may occur
}

// fifo is one link's queue in the send store: the indices of its first and
// last sends, both 0 while it is empty.
type fifo struct{ head, tail int32 }

// arrival is a send delivered in the current round, handed to the
// schedule's deliver callback after the round's walk.
type arrival struct {
	id int32
	w  Word
}

// edgeSet is an ordered set of links: one bit per link, and one summary
// bit per 64-link word, set while that word is nonzero. A walk reads every
// summary word (one per 4,096 links) and only the flagged link words, so
// it visits the members in ascending order without scanning the empty
// ones.
type edgeSet struct {
	words []uint64 // bit l%64 of words[l/64]: link l is in the set
	sum   []uint64 // bit w%64 of sum[w/64]: words[w] is nonzero
	n     int      // members
}

// reset sizes the set for n links, all absent.
func (e *edgeSet) reset(n int) {
	e.words = make([]uint64, (n+63)/64)
	e.sum = make([]uint64, (len(e.words)+63)/64)
	e.n = 0
}

// add inserts link l, which must be absent.
func (e *edgeSet) add(l int) {
	e.words[l>>6] |= 1 << (l & 63)
	e.sum[l>>12] |= 1 << ((l >> 6) & 63)
	e.n++
}

// sendStore is the tree scheduler's pooled, pointer-free queue memory:
// one array of sends shared by every link, each link's FIFO a list linked
// through it in push order, and a free list through which the sends a
// round removes are reused by later pushes. It lives in the network's
// scratch and keeps its arrays across schedules, so a schedule allocates
// only when it uses more links, or holds more sends at once, than any
// earlier one: the store is sized by the schedules the network has run,
// not by its graph.
type sendStore struct {
	sends []send    // sends[0] is the nil send: index 0 ends every list
	fifo  []fifo    // per link, at least the current schedule's
	free  int32     // first reusable send, linked through next; 0 when none
	set   edgeSet   // exactly the links whose FIFOs are nonempty
	out   []arrival // the current round's deliveries, in walk order
}

// ready readies the store for a schedule over the given number of links
// on g. Every send is free again. A store too small for the schedule is
// replaced by an empty one for twice its links, at most every directed
// edge of g: one growth then also serves a later schedule up to twice as
// wide (a request's cluster trees after its global tree, on an ordinary
// graph), while a schedule over a small share of a large graph (a Lemma 16
// sub-network's trees over Ĝ_L) keeps a store of its own order. Otherwise
// a schedule abandoned under faults may have left FIFOs nonempty, anywhere
// in the store; the ordered set still names exactly those (push adds a
// link, only an emptied link leaves), so walking it restores the all-empty
// invariant without touching the other links. It is kept out of
// newTreeSched, whose inlining keeps the scheduler off the heap.
func (st *sendStore) ready(links int, g *graph.Graph) {
	st.sends = append(st.sends[:0], send{})
	st.free = 0
	set := &st.set
	if links > len(st.fifo) {
		n := min(2*links, 2*g.M())
		st.fifo = make([]fifo, n)
		set.reset(n)
		return
	}
	for si, sw := range set.sum {
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 | bits.TrailingZeros64(sw)
			for w := set.words[wi]; w != 0; w &= w - 1 {
				st.fifo[wi<<6|bits.TrailingZeros64(w)] = fifo{}
			}
			set.words[wi] = 0
		}
		set.sum[si] = 0
	}
	set.n = 0
}

// remove unlinks send i, which follows prev (0 at the head), from f and
// frees it.
func (st *sendStore) remove(f *fifo, prev, i int32) {
	next := st.sends[i].next
	if prev == 0 {
		f.head = next
	} else {
		st.sends[prev].next = next
	}
	if f.tail == i {
		f.tail = prev
	}
	st.sends[i].next = st.free
	st.free = i
}

// drop frees every send of f, leaving it empty, and returns how many
// there were.
func (st *sendStore) drop(f *fifo) int {
	n := 1
	for i := f.head; i != f.tail; i = st.sends[i].next {
		n++
	}
	st.sends[f.tail].next = st.free
	st.free = f.head
	*f = fifo{}
	return n
}

// treeSched is the shared store-and-forward scheduler for tree-structured
// communication: per link a FIFO of pending sends, at most one crossing
// per round. A schedule's links are the directions of the host edges its
// trees or packets use, given in ascending order (edges): link l is
// direction l&1 of host edge edges[l>>1], so the FIFOs live in the
// network's pooled send store indexed by link (an array access, not a map
// probe), and a link is mapped back to its directed edge only to charge,
// trace and decide faults.
//
// Ordering invariant: the store's edgeSet holds exactly the links with
// nonempty FIFOs, every round walks it in ascending order, and on each
// link the round acts on the first eligible send in push order. Ascending
// links are ascending directed edges, so that processed order is the
// directed-edge order that keeps charge order and delivery order — and
// therefore every gated metric — byte-identical; a set walk yields it with
// no sort, and where a send sits in the store's array does not enter it.
type treeSched struct {
	nw     *Network
	edges  []int32 // the schedule's host edges, ascending
	round  int
	pushes int // total sends ever queued (sizes the faulty-run round cap)
}

func newTreeSched(nw *Network, edges []int32) *treeSched {
	nw.scr.sched.ready(2*len(edges), nw.g)
	return &treeSched{nw: nw, edges: edges}
}

// push queues word w for id at the tail of link l's FIFO, to cross no
// earlier than round eligible.
func (s *treeSched) push(l int, id int32, w Word, eligible int) {
	st := &s.nw.scr.sched
	i := st.free
	if i != 0 {
		st.free = st.sends[i].next
		st.sends[i] = send{id: id, w: w, eligible: eligible}
	} else {
		i = int32(len(st.sends))
		st.sends = append(st.sends, send{id: id, w: w, eligible: eligible})
	}
	f := &st.fifo[l]
	if f.head == 0 {
		f.head = i
		st.set.add(l)
	} else {
		st.sends[f.tail].next = i
	}
	f.tail = i
	s.pushes++
}

// step advances one round, acting on at most one eligible send per link
// (a directed edge carries one word per round) and preserving FIFO order
// otherwise; deliveries are handed to deliver after the walk, in walk
// order, so the caller can apply their effects (which may enqueue new
// sends eligible from round+1). Returns false when no FIFO holds any send.
//
// A reliable link delivers the send. Under a fault plan a crashed sender's
// whole FIFO dies unsent, and otherwise the send's outcome is applied:
// delivered once or twice, swallowed by a crashed receiver, retried next
// round from its FIFO slot, or stalled uncharged until its delay passes.
func (s *treeSched) step(deliver func(id int32, w Word)) bool {
	nw := s.nw
	st := &nw.scr.sched
	set := &st.set
	if set.n == 0 {
		return false
	}
	faulty := nw.faulty()
	if faulty && s.round >= s.faultRoundCap() {
		// A fault plan can starve completeness (every remaining send
		// perpetually delayed); abandon the schedule so the primitives'
		// completeness checks report the failure instead of spinning.
		return false
	}
	nw.checkCancel()
	s.round++
	round := nw.metrics.Rounds + 1 // global round in progress: fault decisions key on it
	out := st.out[:0]
	sends, edges := st.sends, s.edges // no push happens during the walk
	// Walk the nonempty FIFOs in ascending link order, which is ascending
	// directed-edge order: summary bits name the nonzero words, word bits
	// the links. The round's pushes happen after the walk, in deliver.
	for si, sw := range set.sum {
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 | bits.TrailingZeros64(sw)
			for w := set.words[wi]; w != 0; w &= w - 1 {
				l := wi<<6 | bits.TrailingZeros64(w)
				f := &st.fifo[l]
				for prev, i := int32(0), f.head; i != 0; prev, i = i, sends[i].next {
					sd := &sends[i]
					if sd.eligible > s.round {
						continue
					}
					de := 2*int(edges[l>>1]) | l&1
					o := faultinject.Outcome{} // a reliable link delivers
					if faulty {
						from, to := nw.ends(de)
						if nw.link.SenderDown(from, round) {
							// Every send queued on this link is from the dead node
							// (by the directed-edge encoding); all die unsent.
							nw.link.CrashDrop(st.drop(f))
							break
						}
						o = nw.link.Edge(round, de, to)
					}
					switch o.Action {
					case faultinject.DeliverTwice:
						nw.chargeEdge(de)
						out = append(out, arrival{sd.id, sd.w})
						fallthrough // then delivered like any other send
					case faultinject.Deliver:
						nw.chargeEdge(de)
						out = append(out, arrival{sd.id, sd.w})
						st.remove(f, prev, i)
					case faultinject.Lost:
						nw.chargeEdge(de)
						st.remove(f, prev, i)
					case faultinject.Retry:
						// Charged and lost; the send keeps its FIFO slot and the link
						// retries it next round. Only a plan that drops forever
						// starves the schedule, and faultRoundCap turns that into a
						// completeness error.
						nw.chargeEdge(de)
					case faultinject.Stall:
						// Nothing crosses: the send keeps its FIFO slot and becomes
						// eligible again after the delay.
						sd.eligible = s.round + o.Delay
					}
					if o.Action != faultinject.Deliver {
						nw.link.Record(o)
					}
					break
				}
				if f.head == 0 {
					set.words[wi] &^= w & -w
					set.n--
				}
			}
			if set.words[wi] == 0 {
				set.sum[si] &^= sw & -sw
			}
		}
	}
	nw.chargeRound()
	for _, a := range out {
		deliver(a.id, a.w)
	}
	st.out = out
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

// sweepFor readies the network's pooled sweep state for set s. A nil set
// is ErrNoTrees, and a set compiled for another graph is refused; neither
// charges anything.
func (nw *Network) sweepFor(s *TreeSet) error {
	if s == nil {
		return ErrNoTrees
	}
	if s.g != nw.g {
		return errForeignSet
	}
	scr := &nw.scr
	scr.acc = grown(scr.acc, len(s.node))
	scr.pending = grown(scr.pending, len(s.node))
	scr.seen = grown(scr.seen, len(s.node))
	scr.got = grown(scr.got, s.Len())
	return nil
}

// sweepUp is the one upward body of the tree primitives: a scheduled
// convergecast of val under agg on every tree of s. It leaves each slot's
// subtree aggregate in the scratch's acc and its unheard children in
// pending; the primitives differ only in how they check that state for
// completion. Each send is keyed by the sending child's slot, so a
// duplicated delivery is dropped by the child's seen mark and a parent
// folds every child's word exactly once. The caller has run sweepFor.
func (nw *Network) sweepUp(s *TreeSet, val func(t int, v graph.NodeID) Word, agg Agg) {
	acc, pending, seen := nw.scr.acc, nw.scr.pending, nw.scr.seen
	sched := newTreeSched(nw, s.edges)
	delays := nw.randomDelays(s.Len(), s.c)
	before := nw.metrics.Rounds
	clear(seen)
	for i, v := range s.node {
		acc[i] = val(int(s.tree[i]), graph.NodeID(v))
		pending[i] = s.kids[i+1] - s.kids[i]
	}
	// Leaves are immediately ready to send to their parents.
	for i, p := range s.parent {
		if pending[i] == 0 && p != -1 {
			sched.push(int(s.up[i]), int32(i), acc[i], 1+delays[s.tree[i]])
		}
	}
	// Child c's word folds into its parent's accumulator once; a parent
	// whose subtree is complete forwards its total to its own parent.
	deliver := func(c int32, w Word) {
		if seen[c] {
			return
		}
		seen[c] = true
		i := s.parent[c]
		acc[i] = agg(acc[i], w)
		pending[i]--
		if pending[i] == 0 && s.parent[i] != -1 {
			sched.push(int(s.up[i]), i, acc[i], sched.round+1)
		}
	}
	for sched.step(deliver) {
	}
	nw.checkSweep("convergecast", s, delays, nw.metrics.Rounds-before)
}

// rootTotals returns each tree's root aggregate after sweepUp, or an error
// for the first tree whose root has not heard from every child.
func (nw *Network) rootTotals(s *TreeSet) ([]Word, error) {
	out := make([]Word, s.Len())
	for t := range out {
		i := s.first[t]
		if nw.scr.pending[i] != 0 {
			return nil, fmt.Errorf("congest: convergecast of tree %d did not complete", t)
		}
		out[t] = nw.scr.acc[i]
	}
	return out, nil
}

// sweepDown is the one downward body of the tree primitives: every root
// sends rootVal(t, its acc entry) toward its leaves, one scheduled hop per
// tree edge, and on(t, i, w) fires once at every slot i with the value it
// received (the root at round 0). A parent slot sends each child slot
// next(t, parent, child, parentVal, childSub), where childSub is the
// child's acc entry; a nil next forwards the parent's own value. A
// duplicated delivery is dropped by the receiver's seen mark. what names
// the primitive in the completion error. The caller has run sweepFor.
func (nw *Network) sweepDown(
	what string,
	s *TreeSet,
	rootVal func(t int, total Word) Word,
	next func(t, parent, child int, parentVal, childSub Word) Word,
	on func(t, i int, w Word),
) error {
	acc, seen, got := nw.scr.acc, nw.scr.seen, nw.scr.got
	sched := newTreeSched(nw, s.edges)
	delays := nw.randomDelays(s.Len(), s.c)
	before := nw.metrics.Rounds
	clear(seen)
	clear(got)
	fanOut := func(t int, i int32, w Word, eligible int) {
		for _, c := range s.kid[s.kids[i]:s.kids[i+1]] {
			cw := w
			if next != nil {
				cw = next(t, int(i), int(c), w, acc[c])
			}
			// The parent→child link is the child's up link reversed.
			sched.push(int(s.up[c]^1), c, cw, eligible)
		}
	}
	for t := range got {
		i := s.first[t]
		w := rootVal(t, acc[i])
		seen[i] = true
		got[t]++
		on(t, int(i), w)
		fanOut(t, i, w, 1+delays[t])
	}
	deliver := func(i int32, w Word) {
		if seen[i] {
			return
		}
		seen[i] = true
		t := int(s.tree[i])
		got[t]++
		on(t, int(i), w)
		fanOut(t, i, w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	nw.checkSweep(what, s, delays, nw.metrics.Rounds-before)
	for t, n := range got {
		if members := int(s.first[t+1] - s.first[t]); n != members {
			return fmt.Errorf("congest: %s of tree %d reached %d of %d members", what, t, n, members)
		}
	}
	return nil
}

// AggregateMany runs a full part-wise aggregation round-trip on every tree
// of s: convergecast of val under agg to the root, then broadcast of the
// result back to all members. It returns the per-tree aggregates (which,
// after the call, every member of the corresponding tree knows). This
// realizes Proposition 6's "solve part-wise aggregation given trees of the
// shortcut subgraphs".
//
// Charges O(c·(maxdepth + log k)) rounds for congestion c over k trees
// (random-delay scheduling). Deterministic for a fixed network seed:
// scheduling draws come from the network RNG in canonical tree order, once
// per half. The sweep state and the scheduler queues are pooled — steady
// state allocates only the returned []Word (pinned by
// TestAggregateManySteadyStateAllocs).
func (nw *Network) AggregateMany(
	s *TreeSet,
	val func(t int, v graph.NodeID) Word,
	agg Agg,
) ([]Word, error) {
	if err := nw.sweepFor(s); err != nil {
		return nil, err
	}
	nw.sweepUp(s, val, agg)
	up, err := nw.rootTotals(s)
	if err != nil {
		return nil, err
	}
	forward := func(_ int, total Word) Word { return total }
	if err := nw.sweepDown("broadcast", s, forward, nil, func(int, int, Word) {}); err != nil {
		return nil, err
	}
	return up, nil
}
