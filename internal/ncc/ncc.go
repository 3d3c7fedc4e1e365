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
	"slices"

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
	quiet    bool // collector is simtrace.Nop: skip per-message trace emission
	scr      nccScratch
	link     faultinject.Link // fault bookkeeping; nil plan on reliable networks
}

// nccScratch pools the per-call working memory of Deliver and Aggregate so
// steady-state aggregation rounds allocate nothing. Deliver and Aggregate
// use disjoint field families (Aggregate calls Deliver while holding its
// own buffers), and each stamped array has its own epoch counter.
type nccScratch struct {
	// Deliver: the batch's distinct senders in ascending order, a
	// sender-major message arena (qStart/qLen index per-sender FIFO
	// regions; qLen is all-zero between calls), the per-round delivered
	// batch with the positions of its duplicates' spare copies, and
	// epoch-stamped per-receiver load counts.
	senders   []int32
	qStart    []int32
	qLen      []int32
	arena     []Message
	delivered []Message
	spare     []int32
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
// per-node capacity ceil(log2 n) (minimum 1), recording to tr (nil selects
// simtrace.Nop) and injecting the faults of plan (nil = reliable). The
// collector records rounds, clique deliveries, and the ncc.sends /
// ncc.overloads / ncc.drops counters; it never influences scheduling or
// the metrics. Fault decisions are pure functions of (plan seed, round,
// sender, receiver), so a faulty clique run replays byte-identically
// (DESIGN.md §9).
func NewNetwork(n int, tr simtrace.Collector, plan *faultinject.Plan) *Network {
	tr = simtrace.OrNop(tr)
	_, quiet := tr.(simtrace.Nop)
	return &Network{n: n, cap: log2ceil(n), trace: tr, quiet: quiet, link: faultinject.NewLink(plan, tr, n, 0)}
}

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
// Returns the number of rounds consumed. The work is linear in the batch
// and its rounds: only the senders the batch names are bucketed and
// scanned, never all n nodes.
//
// Under a fault plan the same schedule applies each offered
// message's fate. A drop uses a send slot, is not counted in Messages and
// is retried from its FIFO slot next round; a duplicate uses one receive
// slot, is counted twice and is handed to recv once; a delay uses no slot
// and is offered again next round with a fresh draw; a message to a
// crashed receiver uses a send slot and is lost; a crashed sender's whole
// backlog dies. A faulty schedule can starve, so after 64 + 16·len(msgs)
// rounds it fails with ErrFaultBudget: it degrades loudly, it never hangs.
func (nw *Network) Deliver(msgs []Message, recv func(Message)) (int, error) {
	for _, m := range msgs {
		if m.From < 0 || m.From >= nw.n || m.To < 0 || m.To >= nw.n {
			return 0, fmt.Errorf("ncc: %w: message %d->%d with n=%d",
				graph.ErrNodeRange, m.From, m.To, nw.n)
		}
	}
	// Bucket messages sender-major into the pooled arena: count while
	// listing each sender once, sort the senders, prefix-sum their regions,
	// fill in input order. Scanning the sorted senders with FIFO region
	// order is exactly the sorted-sender, FIFO-per-sender schedule of the
	// historical map-based implementation, so delivery order — and with it
	// every charge — is unchanged. The borrowed buffers are parked (nil)
	// while recv callbacks run so a reentrant Deliver cannot corrupt them,
	// and every backlog a failed schedule leaves is cleared on the way out.
	s := &nw.scr
	senders := grown(s.senders, nw.n)[:0]
	qStart := grown(s.qStart, nw.n)
	qLen := grown(s.qLen, nw.n)
	arena := grown(s.arena, len(msgs))
	delivered, spare := s.delivered[:0], s.spare[:0]
	s.senders, s.qStart, s.qLen, s.arena, s.delivered, s.spare = nil, nil, nil, nil, nil, nil
	defer func() {
		for _, v := range senders {
			qLen[v] = 0
		}
		s.senders, s.qStart, s.qLen, s.arena, s.delivered, s.spare = senders[:0], qStart, qLen, arena, delivered, spare
	}()
	for _, m := range msgs {
		if qLen[m.From] == 0 {
			senders = append(senders, int32(m.From))
		}
		qLen[m.From]++
	}
	slices.Sort(senders)
	off := int32(0)
	for _, v := range senders {
		qStart[v] = off
		off += qLen[v]
	}
	for _, m := range msgs { // qStart advances as a fill cursor, then rewinds
		arena[qStart[m.From]] = m
		qStart[m.From]++
	}
	for _, v := range senders {
		qStart[v] -= qLen[v]
	}
	recvLoad := grown(s.recvLoad, nw.n)
	recvStamp := grown(s.recvStamp, nw.n)
	s.recvLoad, s.recvStamp = recvLoad, recvStamp
	nw.trace.Counter("ncc.sends", int64(len(msgs)))
	faulty := nw.link.Faulty()
	budget := 64 + 16*len(msgs)
	remaining := len(msgs)
	used := 0
	// Every round offers at least the first queued message of the lowest
	// busy sender (the caps are ≥ 1), so a reliable schedule always
	// progresses and a faulty one ends by its budget.
	for remaining > 0 {
		if faulty && used >= budget {
			return used, ErrFaultBudget
		}
		used++
		round := nw.rounds + 1 // absolute NCC round in progress
		s.recvEpoch++
		if s.recvEpoch == 0 {
			for i := range recvStamp {
				recvStamp[i] = 0
			}
			s.recvEpoch = 1
		}
		epoch := s.recvEpoch
		delivered, spare = delivered[:0], spare[:0]
		busy := senders[:0] // the senders still queued after this round, in order
		for _, v := range senders {
			l := qLen[v]
			if faulty && nw.link.SenderDown(int(v), round) {
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
				if recvStamp[m.To] != epoch {
					recvStamp[m.To] = epoch
					recvLoad[m.To] = 0
				}
				if int(sent) >= nw.cap || int(recvLoad[m.To]) >= nw.cap {
					q[kept] = m
					kept++
					continue
				}
				if faulty {
					// A fault diverts the message; a plain or duplicated
					// delivery takes the one deliver step below.
					o := nw.link.Clique(round, m.From, m.To)
					nw.link.Record(o)
					switch o.Action {
					case faultinject.DeliverTwice:
						// The spare copy is charged and shares the receive
						// slot below; recv takes the message once.
						spare = append(spare, int32(len(delivered)))
						delivered = append(delivered, m)
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
				recvLoad[m.To]++
				sent++
				remaining--
				delivered = append(delivered, m)
			}
			qLen[v] = kept
			if kept > 0 {
				busy = append(busy, v)
			}
		}
		senders = busy
		nw.messages += int64(len(delivered))
		if len(delivered) > 0 && !nw.quiet {
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
		next := 0 // index into spare of the next copy to skip
		for i, m := range delivered {
			if next < len(spare) && int(spare[next]) == i {
				next++
				continue
			}
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
