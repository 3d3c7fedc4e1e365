package congest

import (
	"distlap/internal/faultinject"
	"distlap/internal/graph"
)

// This file is the CONGEST engine's half of the fault-injection contract
// (DESIGN.md §9). Exchange and the tree scheduler each run one delivery
// loop: with a nil plan it delivers every send after one hoisted nil check,
// and under a plan (Options.Faults) each send takes its outcome from the
// network's faultinject.Link, which owns the crash checks, the Stats tally
// and the fault.* trace records. This engine owns only what an outcome
// does to its queues and charges. Decisions are pure functions of (plan
// seed, global round, directed edge / node), so a faulty execution is
// byte-identical across repeats and -parallel widths.

// FaultStats is the per-engine fault tally, shared with the NCC engine via
// internal/faultinject (see faultinject.Stats for the field semantics).
type FaultStats = faultinject.Stats

// FaultStats returns the faults injected so far (zero on reliable
// networks).
func (nw *Network) FaultStats() FaultStats { return nw.link.Stats() }

// stashedDelivery is an Exchange message in delayed flight: it matures at
// the first Exchange whose global round reaches due, arriving stale at
// whatever handler that round runs (exactly the hazard delayed packets
// pose to real synchronous algorithms).
type stashedDelivery struct {
	due int // global round at which the delivery matures
	d   delivery
}

// transmission is one Exchange send under a fault plan: the delivery plus
// the directed edge it crosses, so a retransmission charges the same link.
type transmission struct {
	de int
	d  delivery
}

// exchangeRetryCap bounds the retransmission rounds one faulty Exchange may
// consume. Links are fair-lossy: a fresh variate is drawn per (round, edge),
// so any drop probability below one clears the backlog in a handful of
// rounds (P[a word needs > k rounds] = p^k). Only a pathological plan
// (DropProb == 1, or a flaky link at FlakyDropProb == 1) reaches the cap;
// the survivors are then abandoned as permanent drops — which corrupts the
// exchange and is caught downstream by the solver's residual verification.
const exchangeRetryCap = 64

// transmit resolves one Exchange send under the fault plan, modeling a
// reliable transport over fair-lossy links. Every fate is charged once at
// send (the bits crossed part of the link) and a duplicate twice. A
// dropped send joins the retry buffer and is retransmitted in an extra
// round, so drops cost rounds and bandwidth, not correctness. A delayed
// send is stashed and arrives stale at a later Exchange's round barrier,
// and a send to a crashed receiver is swallowed. Returns deliveries with
// this round's arrivals appended.
func (nw *Network) transmit(round int, tx transmission, deliveries []delivery) []delivery {
	o := nw.link.Edge(round, tx.de, tx.d.to)
	nw.chargeEdge(tx.de)
	switch o.Action {
	case faultinject.Deliver:
		deliveries = append(deliveries, tx.d)
	case faultinject.DeliverTwice:
		nw.chargeEdge(tx.de)
		deliveries = append(deliveries, tx.d, tx.d)
	case faultinject.Retry:
		nw.scr.retry = append(nw.scr.retry, tx)
	case faultinject.Stall:
		nw.stash = append(nw.stash, stashedDelivery{due: round + o.Delay, d: tx.d})
	}
	nw.link.Record(o)
	return deliveries
}

// deliverMatured hands the stashed deliveries due by round to recv, stale
// and before the round's own deliveries (they are older). A receiver that
// crashed while they were in flight swallows them.
func (nw *Network) deliverMatured(round int, recv func(v graph.NodeID, h graph.Half, w Word)) {
	kept := nw.stash[:0]
	for _, sd := range nw.stash {
		if sd.due > round {
			kept = append(kept, sd)
			continue
		}
		if nw.link.Plan.Crashed(sd.d.to, round) {
			nw.link.CrashDrop(1)
			continue
		}
		recv(sd.d.to, sd.d.half, sd.d.w)
	}
	nw.stash = kept
}

// faultRoundCap bounds a faulty tree-scheduler run: delays and drops can
// starve completeness, and the scheduler must abandon — triggering the
// primitives' completeness errors — rather than spin. The bound is far
// above any legitimate schedule (which delivers ≥ 1 send per active round).
func (s *treeSched) faultRoundCap() int { return 10_000 + 16*s.pushes }
