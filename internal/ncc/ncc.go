// Package ncc implements the node-capacitated clique model (paper §2,
// following Augustine et al. [2]): in every round each node may exchange
// O(log n)-bit messages with O(log n) arbitrary nodes; messages beyond a
// receiver's capacity are dropped. The engine schedules message batches
// under per-node send and receive caps and measures rounds, and the
// Aggregate method realizes Lemma 26: any p-congested part-wise aggregation
// solved in O(p + log n) NCC rounds.
//
// Determinism obligations: batch scheduling iterates nodes and messages in
// stable ID order, round counters are written only by this package's
// delivery primitives (metricsintegrity), and an engine — like its HYBRID
// partner network — is single-goroutine for its whole lifetime
// (DESIGN.md §7).
package ncc

import (
	"errors"
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// Message is one O(log n)-bit message between arbitrary nodes.
type Message struct {
	From, To graph.NodeID
	Payload  congest.Word
}

// Network is an NCC communication network over n nodes. Like its CONGEST
// counterpart it is request-private and single-goroutine, so its pooled
// scratch (scr) carries no information between calls and never affects
// scheduling — only allocation counts.
type Network struct {
	n        int
	cap      int
	rounds   int
	messages int64
	trace    simtrace.Collector
	scr      nccScratch
	link     faultinject.Link // fault bookkeeping; nil plan on reliable networks
}

// nccScratch pools the per-call working memory of Deliver and Aggregate so
// steady-state aggregation rounds allocate nothing. Deliver and Aggregate
// use disjoint field families (Aggregate calls Deliver while holding its
// own buffers), and each stamped array has its own epoch counter.
type nccScratch struct {
	// Deliver: sender-major message arena (qStart/qLen index per-sender
	// FIFO regions), the per-round delivered batch, and epoch-stamped
	// per-receiver load counts.
	qStart    []int32
	qLen      []int32
	arena     []Message
	delivered []Message
	recvLoad  []int32
	recvStamp []uint32
	recvEpoch uint32

	// Aggregate: per-part sorted member views (aliasing the caller's part
	// when already sorted, a region of memArena otherwise), positional
	// accumulators, epoch-stamped node→value scatter state, and the
	// per-level message/route batches.
	members  [][]graph.NodeID
	memArena []graph.NodeID
	acc      [][]congest.Word
	accArena []congest.Word
	valWord  []congest.Word
	valStamp []uint32
	valEpoch uint32
	msgs     []Message
	routes   []aggRoute
}

// grown returns buf resized to n, reallocating only on growth. The contents
// are not cleared: stamped users bump their epoch instead, and a fresh
// zeroed allocation always reads stale because epochs start at 1.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ErrNoNodes is returned for empty networks.
var ErrNoNodes = errors.New("ncc: network has no nodes")

// NewNetwork returns an NCC network over n nodes with the standard
// per-node capacity ceil(log2 n) (minimum 1).
func NewNetwork(n int) *Network {
	return NewNetworkWith(n, nil)
}

// NewNetworkWith is NewNetwork with a trace collector attached (nil selects
// simtrace.Nop). The collector records rounds, clique deliveries, and the
// ncc.sends / ncc.overloads / ncc.drops counters; it never influences
// scheduling or the metrics.
func NewNetworkWith(n int, tr simtrace.Collector) *Network {
	tr = simtrace.OrNop(tr)
	return &Network{n: n, cap: log2ceil(n), trace: tr, link: faultinject.Link{Trace: tr}}
}

// SetFaults attaches a deterministic fault plan (nil = reliable). Set it
// before the first Deliver; decisions are pure functions of (plan seed,
// round, sender, receiver), so a faulty clique run replays byte-identically
// (DESIGN.md §9).
func (nw *Network) SetFaults(p *faultinject.Plan) { nw.link.Plan = p }

// FaultStats returns the faults injected so far (zero on reliable
// networks).
func (nw *Network) FaultStats() faultinject.Stats { return nw.link.Stats() }

// Capacity returns the per-node, per-round message capacity.
func (nw *Network) Capacity() int { return nw.cap }

// Rounds returns the rounds elapsed.
func (nw *Network) Rounds() int { return nw.rounds }

// Messages returns the total messages delivered.
func (nw *Network) Messages() int64 { return nw.messages }

// Deliver schedules all messages under the per-node send and receive caps
// (FIFO per sender, senders scanned in ID order — deterministic) and
// invokes recv for each delivery in delivery order. Because the scheduler
// never oversubscribes a receiver, no messages are dropped; the measured
// rounds are what an actual NCC execution with this schedule would take.
// Returns the number of rounds consumed.
//
// Under a fault plan (SetFaults) the same schedule applies each offered
// message's fate. A drop uses a send slot, is not counted in Messages and
// is retried from its FIFO slot next round; a duplicate uses one receive
// slot and is delivered twice; a delay uses no slot and is offered again
// next round with a fresh draw; a message to a crashed receiver uses a
// send slot and is lost; a crashed sender's whole backlog dies. A faulty
// schedule can starve, so after 64 + 16·len(msgs) rounds it fails with
// ErrFaultBudget: it degrades loudly, it never hangs.
func (nw *Network) Deliver(msgs []Message, recv func(Message)) (int, error) {
	for _, m := range msgs {
		if m.From < 0 || m.From >= nw.n || m.To < 0 || m.To >= nw.n {
			return 0, fmt.Errorf("ncc: %w: message %d->%d with n=%d",
				graph.ErrNodeRange, m.From, m.To, nw.n)
		}
	}
	// Bucket messages sender-major into the pooled arena: count, prefix-sum,
	// fill in input order. Scanning senders 0..n−1 with FIFO region order is
	// exactly the sorted-sender, FIFO-per-sender schedule of the historical
	// map-based implementation, so delivery order — and with it every charge
	// — is unchanged. The borrowed buffers are parked (nil) while recv
	// callbacks run so a reentrant Deliver cannot corrupt them.
	s := &nw.scr
	qStart := grown(s.qStart, nw.n+1)
	qLen := grown(s.qLen, nw.n)
	arena := grown(s.arena, len(msgs))
	delivered := s.delivered[:0]
	s.qStart, s.qLen, s.arena, s.delivered = nil, nil, nil, nil
	defer func() {
		s.qStart, s.qLen, s.arena, s.delivered = qStart, qLen, arena, delivered
	}()
	for i := range qLen {
		qLen[i] = 0
	}
	for _, m := range msgs {
		qLen[m.From]++
	}
	qStart[0] = 0
	for v := 0; v < nw.n; v++ {
		qStart[v+1] = qStart[v] + qLen[v]
	}
	{
		fill := qLen // reuse as fill cursors; restored to lengths below
		for i := range fill {
			fill[i] = 0
		}
		for _, m := range msgs {
			arena[qStart[m.From]+fill[m.From]] = m
			fill[m.From]++
		}
	}
	nw.trace.Counter("ncc.sends", int64(len(msgs)))
	faults := nw.link.Plan
	budget := 64 + 16*len(msgs)
	remaining := len(msgs)
	used := 0
	// Every round offers at least the first queued message of the lowest
	// busy sender (the caps are ≥ 1), so a reliable schedule always
	// progresses and a faulty one ends by its budget.
	for remaining > 0 {
		if faults != nil && used >= budget {
			return used, ErrFaultBudget
		}
		used++
		round := nw.rounds + 1 // absolute NCC round in progress
		s.recvLoad = grown(s.recvLoad, nw.n)
		s.recvStamp = grown(s.recvStamp, nw.n)
		s.recvEpoch++
		if s.recvEpoch == 0 {
			for i := range s.recvStamp {
				s.recvStamp[i] = 0
			}
			s.recvEpoch = 1
		}
		epoch := s.recvEpoch
		delivered = delivered[:0]
		for v := 0; v < nw.n; v++ {
			l := qLen[v]
			if l == 0 {
				continue
			}
			if faults != nil && nw.link.SenderDown(v, round) {
				// Sender crash-stopped: its whole backlog dies unsent.
				nw.link.CrashDrop(int(l))
				remaining -= int(l)
				qLen[v] = 0
				continue
			}
			q := arena[qStart[v] : qStart[v]+l]
			sent := int32(0)
			kept := int32(0)
			for _, m := range q {
				if s.recvStamp[m.To] != epoch {
					s.recvStamp[m.To] = epoch
					s.recvLoad[m.To] = 0
				}
				if int(sent) >= nw.cap || int(s.recvLoad[m.To]) >= nw.cap {
					q[kept] = m
					kept++
					continue
				}
				if faults != nil {
					// A fault diverts the message; a plain or duplicated
					// delivery takes the one deliver step below.
					o := nw.link.Clique(round, m.From, m.To)
					nw.link.Record(o)
					switch o.Action {
					case faultinject.DeliverTwice:
						delivered = append(delivered, m) // the copy shares the receive slot below
					case faultinject.Lost:
						sent++
						remaining--
						continue
					case faultinject.Retry:
						sent++
						fallthrough // keeps its FIFO slot, like a stall
					case faultinject.Stall:
						q[kept] = m
						kept++
						continue
					}
				}
				s.recvLoad[m.To]++
				sent++
				remaining--
				delivered = append(delivered, m)
			}
			qLen[v] = kept
		}
		nw.messages += int64(len(delivered))
		if len(delivered) > 0 {
			nw.trace.Messages(simtrace.EngineNCC, simtrace.NoEdge, int64(len(delivered)))
			for _, m := range delivered {
				nw.trace.NodeWords(simtrace.EngineNCC, m.From, m.To, 1)
			}
		}
		// The round is charged after its deliveries so a round-series sink
		// attributes this batch's messages to this round boundary.
		nw.rounds++
		nw.trace.Rounds(simtrace.EngineNCC, 1)
		if remaining > 0 {
			// Messages deferred past this round were blocked by a send or
			// receive cap, or by a fault: the scheduler's congestion signal.
			nw.trace.Counter("ncc.overloads", int64(remaining))
		}
		for _, m := range delivered {
			recv(m)
		}
	}
	return used, nil
}

func log2ceil(n int) int {
	k := 1
	for p := 2; p < n; p *= 2 {
		k++
	}
	return k
}
