// Package congest implements a deterministic simulator for the synchronous
// CONGEST model of distributed computing (paper §2): in every round, each
// node may exchange one O(log n)-bit message with each of its neighbors.
//
// The simulator is the measurement instrument for every experiment in this
// repository: algorithms are expressed in terms of a small set of
// communication primitives (per-round neighbor exchange, store-and-forward
// packet routing along explicit paths, and concurrent convergecast/broadcast
// over collections of trees). Each primitive physically moves data and
// charges the exact number of synchronous rounds the data movement takes
// under the one-message-per-edge-direction-per-round bandwidth constraint,
// so round counts are measured rather than estimated.
//
// Supported-CONGEST (the known-topology model, [46] in the paper) is the
// same engine with the Supported flag set: algorithms may then precompute
// topology-dependent structures (e.g. shortcuts) at zero round cost, exactly
// as the model permits.
//
// Determinism obligations: an execution is a pure function of
// (graph, Options.Seed) — scheduling randomness comes only from the
// network's own rand chain, Metrics fields are written only by this
// package's charging primitives (enforced by the metricsintegrity
// analyzer), and a Network with its engines is confined to a single
// goroutine for its whole lifetime (DESIGN.md §7).
package congest

import (
	"errors"
	"math/rand"
	"slices"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// Word is the payload of a single CONGEST message: an O(log n)-bit value.
// Algorithms that need richer payloads serialize them into words and pay
// one round per word per edge.
type Word = int64

// Metrics accumulates the communication cost of everything executed on a
// Network since its creation (or the last Reset).
type Metrics struct {
	Rounds      int   // synchronous rounds elapsed
	Messages    int64 // total word-messages delivered
	MaxEdgeLoad int   // max words carried by any single directed edge
}

// Options configure a Network.
type Options struct {
	// Supported marks the network as Supported-CONGEST: the topology is
	// common knowledge and algorithms may precompute structures from it
	// for free. The flag does not change the engine's behaviour; higher
	// layers consult it when deciding what to charge rounds for.
	Supported bool

	// Seed drives all randomized scheduling decisions (random delays).
	Seed int64

	// DisableRandomDelays turns off the random initial delays used by the
	// tree-aggregation scheduler (the Ghaffari'15-style scheduling
	// ablation; see DESIGN.md §4).
	DisableRandomDelays bool

	// Trace receives instrumentation events (nil selects simtrace.Nop).
	// The collector observes charging; it never influences scheduling, the
	// RNG, or the metrics themselves.
	Trace simtrace.Collector

	// TraceEngine overrides the engine label under which this network's
	// charges are recorded ("" selects simtrace.EngineCongest). Layered
	// sub-networks (Lemma 16 simulations) pass simtrace.EngineLayered so
	// their internally-simulated rounds are distinguishable from rounds
	// charged on the base network.
	TraceEngine string

	// Cancel, when non-nil, is polled at every round barrier (the start of
	// each Exchange round and each tree-scheduler step). A non-nil return
	// aborts the primitive by panicking with a cancellation sentinel that
	// CatchCancel converts back into the error at the request boundary.
	// Long-lived services thread context.Context.Err here so a caller
	// deadline or disconnect stops a multi-round solve between rounds
	// instead of after it. Cancellation never perturbs determinism: a run
	// either completes with the exact metrics the seed dictates or returns
	// the cancellation error with its partial state discarded.
	Cancel func() error

	// Faults, when non-nil, injects deterministic message- and node-level
	// faults at the engine's round barriers: drops, duplications, delays,
	// crash-stop nodes and flaky links, per internal/faultinject. Every
	// decision is a pure function of (plan seed, round, edge/node), so a
	// faulty run is exactly as replayable as a reliable one. nil runs the
	// same delivery loops with one hoisted nil check and no per-message
	// call (DESIGN.md §9).
	Faults *faultinject.Plan
}

// Network is a CONGEST communication network over a fixed graph.
// It is not safe for concurrent use.
//
// A network owns a set of pooled scratch buffers (deliveries, scheduler
// queues, sweep state — see scratch.go) that its primitives reuse across
// calls, which is what makes steady-state rounds allocation-free. The
// pools are request-private by construction: every request runs on its own
// Network (DESIGN.md §7/§8), so pooling never shares mutable state across
// goroutines.
type Network struct {
	g       *graph.Graph
	opts    Options
	rng     *rand.Rand // seeded from opts.Seed on the first draw (randomDelays)
	metrics Metrics
	load    []int64 // per directed edge: total words carried
	trace   simtrace.Collector
	quiet   bool   // collector is simtrace.Nop: skip per-event trace emission
	engine  string // simtrace engine label for this network's charges

	// Fault injection: the plan's bookkeeping (a zero Link with a nil plan
	// on reliable networks) and the Exchange messages in delayed flight.
	link  faultinject.Link
	stash []stashedDelivery

	// Pooled scratch reused by the engine primitives (scratch.go). All of
	// it is dead state between calls; none of it influences scheduling,
	// charging, or the RNG.
	scr scratch
}

// ErrNoTrees is returned by tree primitives invoked with no work.
var ErrNoTrees = errors.New("congest: no trees given")

// canceled is the panic sentinel that carries an Options.Cancel error out of
// an engine primitive. Engine primitives charge rounds through void methods
// (Exchange, the tree scheduler), so cancellation cannot flow back as a
// return value without changing every signature; instead the barrier check
// panics with this sentinel and CatchCancel rematerializes the error at the
// request boundary. The type is unexported so no caller can forge or
// swallow one accidentally.
type canceled struct{ err error }

// checkCancel polls Options.Cancel (when set) and aborts the current
// primitive on a non-nil error. It is called at round barriers only, so a
// cancelled execution stops on a round boundary with no partially-charged
// round.
func (nw *Network) checkCancel() {
	if nw.opts.Cancel == nil {
		return
	}
	if err := nw.opts.Cancel(); err != nil {
		panic(canceled{err})
	}
}

// CatchCancel recovers a cancellation abort raised by a network's Cancel
// hook into *errp, re-panicking on every other panic value. Use it as a
// deferred statement at the boundary that owns the request:
//
//	func (in *Instance) Solve(...) (res *Result, err error) {
//		defer congest.CatchCancel(&err)
//		...
//	}
func CatchCancel(errp *error) {
	r := recover()
	if r == nil {
		return
	}
	if c, ok := r.(canceled); ok {
		*errp = c.err
		return
	}
	panic(r)
}

// NewNetwork returns a network over g with the given options.
func NewNetwork(g *graph.Graph, opts Options) *Network {
	engine := opts.TraceEngine
	if engine == "" {
		engine = simtrace.EngineCongest
	}
	tr := simtrace.OrNop(opts.Trace)
	_, quiet := tr.(simtrace.Nop)
	return &Network{
		g:      g,
		opts:   opts,
		load:   make([]int64, 2*g.M()),
		trace:  tr,
		quiet:  quiet,
		engine: engine,
		link:   faultinject.Link{Plan: opts.Faults, Trace: tr},
	}
}

// Graph returns the underlying communication graph.
func (nw *Network) Graph() *graph.Graph { return nw.g }

// Supported reports whether the network is in Supported-CONGEST mode.
func (nw *Network) Supported() bool { return nw.opts.Supported }

// Metrics returns the communication cost accumulated so far.
func (nw *Network) Metrics() Metrics { return nw.metrics }

// Rounds returns the number of rounds elapsed so far.
func (nw *Network) Rounds() int { return nw.metrics.Rounds }

// Trace returns the network's trace collector (never nil). Algorithm layers
// use it to open phase spans around the primitives they invoke.
func (nw *Network) Trace() simtrace.Collector { return nw.trace }

// ChargeRounds adds r idle rounds (used for purely local computation phases
// that the model still charges, e.g. simulation overheads; see Lemma 16).
func (nw *Network) ChargeRounds(r int) {
	if r > 0 {
		nw.metrics.Rounds += r
		nw.trace.Rounds(nw.engine, r)
	}
}

// chargeRound records one elapsed round. On untraced networks this is a
// bare counter increment — the "no charge recorded" fast path that makes
// simulation bookkeeping free when nobody is listening.
func (nw *Network) chargeRound() {
	nw.metrics.Rounds++
	if !nw.quiet {
		nw.trace.Rounds(nw.engine, 1)
	}
}

// dirEdge encodes a directed use of an undirected edge of g: 2*edge for
// U->V and 2*edge+1 for V->U.
func dirEdge(g *graph.Graph, id graph.EdgeID, from graph.NodeID) int {
	if g.Edge(id).U == from {
		return 2 * id
	}
	return 2*id + 1
}

// chargeEdge records one word crossing a directed edge, attributing it to
// the edge (Messages) and to both endpoint nodes (NodeWords), which are
// recovered from the directed-edge encoding (ends). Metrics accounting is
// three flat-array operations; the per-message trace emission behind it
// is skipped entirely on untraced networks (traced runs keep the exact
// historical emission order).
func (nw *Network) chargeEdge(de int) {
	nw.metrics.Messages++
	nw.load[de]++
	if l := int(nw.load[de]); l > nw.metrics.MaxEdgeLoad {
		nw.metrics.MaxEdgeLoad = l
	}
	if nw.quiet {
		return
	}
	nw.trace.Messages(nw.engine, de, 1)
	from, to := nw.ends(de)
	nw.trace.NodeWords(nw.engine, from, to, 1)
}

// ends returns the sending and receiving nodes of directed edge de: de/2
// is the edge id and the parity selects the direction (even = U->V).
func (nw *Network) ends(de int) (from, to graph.NodeID) {
	e := nw.g.Edge(de / 2)
	if de%2 == 1 {
		return e.V, e.U
	}
	return e.U, e.V
}

// delivery is one word arriving at its destination at the end of an
// Exchange round.
type delivery struct {
	to   graph.NodeID
	half graph.Half // the receiving side's half-edge
	w    Word
}

// Exchange executes one synchronous round in which every node may send one
// word along each incident half-edge. send is queried once per (node,
// half-edge); returning ok=false sends nothing on that half-edge. recv is
// then invoked for every delivered word at its destination. Costs exactly
// one round on a reliable network.
//
// Under a fault plan (Options.Faults) crash-stopped nodes send nothing and
// each send's fate is resolved in the same scan (see transmit): a dropped
// word is retransmitted in extra rounds of this Exchange, up to
// exchangeRetryCap of them, a duplicated word arrives twice, and a delayed
// word arrives stale at a later Exchange. With a nil plan the scan charges
// and delivers every send, bit-for-bit the pre-fault-injection engine.
//
// Θ(n + m) work per round; deterministic — handlers run in ascending
// (node, half-edge) order, deliveries in send order. The delivery and retry
// buffers are pooled: after warm-up an Exchange allocates nothing, reliable
// or lossy (pinned at zero by TestExchangeSteadyStateAllocs and
// TestFaultyExchangeSteadyStateAllocs).
func (nw *Network) Exchange(
	send func(v graph.NodeID, h graph.Half) (Word, bool),
	recv func(v graph.NodeID, h graph.Half, w Word),
) {
	nw.checkCancel()
	faults := nw.link.Plan
	round := nw.metrics.Rounds + 1
	if faults != nil {
		// Note the round's crashed senders before resolving any fate, so
		// crash records precede the fault records of the sends around them.
		for v := 0; v < nw.g.N(); v++ {
			nw.link.SenderDown(v, round)
		}
	}
	// Borrow the pooled delivery buffer; parking nil in its place keeps a
	// reentrant Exchange from a handler (none exist today) from clobbering
	// the batch mid-flight.
	deliveries := nw.scr.deliveries[:0]
	nw.scr.deliveries = nil
	for v := 0; v < nw.g.N(); v++ {
		if faults != nil && faults.Crashed(v, round) {
			continue // crash-stop: the node computes and sends nothing
		}
		for _, h := range nw.g.Neighbors(v) {
			w, ok := send(v, h)
			if !ok {
				continue
			}
			tx := transmission{
				de: dirEdge(nw.g, h.Edge, v),
				d:  delivery{to: h.To, half: graph.Half{To: v, Edge: h.Edge}, w: w},
			}
			if faults != nil {
				deliveries = nw.transmit(round, tx, deliveries)
				continue
			}
			nw.chargeEdge(tx.de)
			deliveries = append(deliveries, tx.d)
		}
	}
	for tries := 0; ; tries++ {
		nw.chargeRound()
		if len(nw.stash) > 0 {
			nw.deliverMatured(round, recv)
		}
		for _, d := range deliveries {
			recv(d.to, d.half, d.w)
		}
		if len(nw.scr.retry) == 0 {
			break
		}
		if tries == exchangeRetryCap {
			// Pathologically lossy links: abandon the survivors as permanent
			// drops rather than spin. The exchange is now corrupted, which
			// the solver's local residual verification detects.
			nw.link.Abandon(len(nw.scr.retry))
			nw.scr.retry = nw.scr.retry[:0]
			break
		}
		// Retransmit the words this round dropped, in a round of their own.
		round = nw.metrics.Rounds + 1
		deliveries = deliveries[:0]
		pending := nw.scr.retry
		nw.scr.retry = pending[:0] // compacted in place: each send re-queues at most once
		for _, tx := range pending {
			deliveries = nw.transmit(round, tx, deliveries)
		}
	}
	nw.scr.deliveries = deliveries
}

// BFS computes hop distances from root with an actual distributed flooding
// execution (each node learns its distance in the round it is reached);
// it charges ecc(root)+1 rounds. The returned structure matches graph.BFS.
// This grounds the cost model: distributed BFS costs O(D) rounds.
func (nw *Network) BFS(root graph.NodeID) *graph.BFSResult {
	nw.trace.Begin("bfs")
	defer nw.trace.End("bfs")
	n := nw.g.N()
	res := &graph.BFSResult{
		Root:       root,
		Dist:       make([]int, n),
		Parent:     make([]graph.NodeID, n),
		ParentEdge: make([]graph.EdgeID, n),
	}
	for i := 0; i < n; i++ {
		res.Dist[i] = -1
		res.Parent[i] = -1
		res.ParentEdge[i] = -1
	}
	res.Dist[root] = 0
	res.Order = append(res.Order, root)
	// Flat frontier: a membership bitmap plus the node list of the current
	// wave (the only nodes whose bits need clearing between rounds).
	frontier := make([]bool, n)
	frontier[root] = true
	wave := []graph.NodeID{root}
	for len(wave) > 0 {
		var reached []graph.NodeID
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) {
				if frontier[v] {
					return Word(res.Dist[v]), true
				}
				return 0, false
			},
			func(v graph.NodeID, h graph.Half, w Word) {
				if res.Dist[v] == -1 {
					res.Dist[v] = int(w) + 1
					res.Parent[v] = h.To
					res.ParentEdge[v] = h.Edge
					reached = append(reached, v)
				}
			},
		)
		// Deterministic order: reached was appended in node-scan order of
		// the sending side; sort by node ID for stability.
		slices.Sort(reached)
		res.Order = append(res.Order, reached...)
		for _, v := range wave {
			frontier[v] = false
		}
		for _, v := range reached {
			frontier[v] = true
		}
		wave = reached
	}
	return res
}
