package faultinject

import (
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// Trace names of the injected-event records, as counter/gauge pairs.
// Every injected event raises its counter (a bulk loss by the number of
// sends lost), so each counter always equals its Stats field. An event
// that hits one message also streams a gauge sample whose step is the
// event's running count, whose value names the edge or node hit, and
// whose rounds field pins it to its engine round (the marker rows
// `simtrace -timeline` renders); bulk losses raise the counter only. The
// names are constants, so noting an event allocates nothing.
const (
	counterDrops, gaugeDrop           = "fault.drops", "fault.drop"
	counterDups, gaugeDup             = "fault.dups", "fault.dup"
	counterDelays, gaugeDelay         = "fault.delays", "fault.delay"
	counterCrashDrops, gaugeCrashDrop = "fault.crash-drops", "fault.crash-drop"
	counterCrashes, gaugeCrash        = "fault.crashes", "fault.crash"
)

// Action is what an engine does with one send once its Link has decided
// the send's fate. Every engine implements every action; what an action
// charges is the engine's own affair (DESIGN.md §9 tabulates both).
type Action uint8

const (
	// Deliver hands the send to its receiver once. It is the zero Action:
	// a reliable network always delivers.
	Deliver Action = iota
	// DeliverTwice: the send was duplicated in flight. Both copies cross
	// and are charged; every engine hands its receiver one.
	DeliverTwice
	// Retry loses this crossing; the engine's reliable transport offers the
	// send again in a later round (fair-lossy links).
	Retry
	// Stall holds the send back for Outcome.Delay rounds.
	Stall
	// Lost swallows the send for good: its receiver has crash-stopped.
	Lost
)

// Outcome is a Link's decision for one send offered in one round.
type Outcome struct {
	Action Action
	Delay  int // rounds a Stall holds the send (≥ 1); 0 for other actions

	at site // the coordinates Record notes
}

// site is where a decision was made: its round, the key its records name
// (the directed edge, or the clique receiver) and its receiver. It is
// int32, like the engines' slot ids, so that an Outcome stays within the
// compiler's register-allocated struct size and a decision returns in
// registers, not through the stack.
type site struct{ round, key, to int32 }

// Link is one engine's fault bookkeeping under a Plan: the sender and
// receiver crash checks, the mapping from a decision to an Outcome, the
// Stats tally, the crashed nodes seen and the fault.* trace records. The
// engine keeps only what an Outcome does to its own queues and charges, so
// a new engine gets the whole fault model from these methods. A Link with
// a nil Plan (the zero Link among them) is the reliable network, which
// engines never consult per message. A Link belongs to one engine and,
// like it, to one goroutine.
//
// NewLink compiles the plan against the engine's network: each node's
// crash round and each undirected edge's flaky bit are decided once, and
// the round-keyed half of every per-send variate once per round, so a
// send's fate costs two table reads and one SplitMix64 finish. The
// decisions are the plan's own (Plan.Crashed, Plan.Link, Plan.Clique),
// which FuzzLinkMatchesPlan pins.
type Link struct {
	plan  *Plan
	trace simtrace.Collector // receives the fault.* records

	crashAt []int    // per node, the round it crash-stops from (0: never); nil unless crashes are enabled
	flaky   []uint64 // bitset over undirected edges; nil unless flaky links are enabled
	edge    roundKeys
	clique  roundKeys

	stats   Stats
	crashed map[int]bool // crash-stopped nodes already noted
}

// roundKeys are the halves of one round's per-send variates that depend
// on the round alone. A Link derives them when asked about another round
// than the last, so the sends of one round share them, and each send
// finishes its variates from them.
type roundKeys struct {
	round              int
	fate, delay, flaky seedderive.Key
}

// family names the decision kinds of one kind of send: a send over a
// directed edge, or a clique message, which has no edge and so no flaky
// link (flaky is 0).
type family struct{ fate, delay, flaky seedderive.Phase }

var (
	edgeFamily   = family{kindLink, kindLinkDelay, kindFlakyRound}
	cliqueFamily = family{kindClique, kindCliqueDelay, 0}
)

// keysAt derives the round-keyed variate halves of f for round, each only
// if the plan can use it.
func (p *Plan) keysAt(round int, f *family) roundKeys {
	k := roundKeys{round: round}
	r := int64(round)
	if p.lossy {
		k.fate = p.key(f.fate, r)
		if p.spec.DelayProb > 0 {
			k.delay = p.key(f.delay, r)
		}
	}
	if f.flaky != 0 && p.spec.FlakyLinkProb > 0 {
		k.flaky = p.key(f.flaky, r)
	}
	return k
}

// NewLink compiles plan for an engine over nodes nodes and edges
// undirected edges (0 for the clique), recording faults to tr. It builds a
// table only for a fault the plan enables, and nothing for a nil plan.
func NewLink(plan *Plan, tr simtrace.Collector, nodes, edges int) Link {
	l := Link{plan: plan, trace: tr}
	if plan == nil {
		return l
	}
	if plan.spec.CrashProb > 0 {
		l.crashAt = make([]int, nodes)
		for v := range l.crashAt {
			l.crashAt[v] = plan.crashRound(v)
		}
	}
	if plan.spec.FlakyLinkProb > 0 {
		l.flaky = make([]uint64, (edges+63)/64)
		for e := 0; e < edges; e++ {
			if plan.FlakyLink(e) {
				l.flaky[e/64] |= 1 << (e % 64)
			}
		}
	}
	l.edge = plan.keysAt(1, &edgeFamily)
	l.clique = plan.keysAt(1, &cliqueFamily)
	return l
}

// Faulty reports whether the Link has a plan: engines run their fault
// branches only then.
func (l *Link) Faulty() bool { return l.plan != nil }

// Stats returns the faults injected so far (zero on a reliable Link).
func (l *Link) Stats() Stats { return l.stats }

// Crashed reports whether node v has crash-stopped by the given round,
// without noting it.
func (l *Link) Crashed(v, round int) bool {
	if l.crashAt == nil {
		return false
	}
	c := l.crashAt[v]
	return c != 0 && round >= c
}

// SenderDown reports whether node v has crash-stopped by the given round,
// noting the crash the first time it is observed. A crashed sender sends
// nothing: the engine skips it, or drops its queue through CrashDrop.
func (l *Link) SenderDown(v, round int) bool {
	if !l.Crashed(v, round) {
		return false
	}
	l.noteCrash(v, round)
	return true
}

// Edge decides the fate of one send crossing directed edge de (the congest
// engine's 2*edge+direction encoding) toward node to in the given round.
func (l *Link) Edge(round, de, to int) Outcome {
	o := Outcome{at: site{int32(round), int32(de), int32(to)}}
	if l.Crashed(to, round) {
		o.Action = Lost
		return o
	}
	if l.edge.round != round {
		l.edge = l.plan.keysAt(round, &edgeFamily)
	}
	if e := de / 2; l.flaky != nil && l.flaky[e/64]&(1<<(e%64)) != 0 &&
		unit(l.edge.flaky.At(int64(de))) < l.plan.flakyDropProb {
		o.Action = Retry
		return o
	}
	o.Action, o.Delay = l.fate(&l.edge, int64(de))
	return o
}

// Clique decides the fate of one clique message from → to in the given
// round. The clique has no edge identity, so its records name the receiver.
func (l *Link) Clique(round, from, to int) Outcome {
	o := Outcome{at: site{int32(round), int32(to), int32(to)}}
	if l.Crashed(to, round) {
		o.Action = Lost
		return o
	}
	if l.clique.round != round {
		l.clique = l.plan.keysAt(round, &cliqueFamily)
	}
	o.Action, o.Delay = l.fate(&l.clique, cliqueKey(from, to))
	return o
}

// fate finishes the fate variate of send idx from the round's keys and
// maps it to an action, finishing the delay variate only for a stall.
func (l *Link) fate(k *roundKeys, idx int64) (Action, int) {
	if !l.plan.lossy {
		return Deliver, 0
	}
	f := l.plan.band(unit(k.fate.At(idx)))
	if f == FateDelay {
		return Stall, l.plan.delay(unit(k.delay.At(idx)))
	}
	return actions[f], 0
}

// actions maps a verdict's fate to the reliable transport's action: a drop
// is retried, a duplicate crosses twice, a delay stalls.
var actions = [...]Action{FateDeliver: Deliver, FateDrop: Retry, FateDup: DeliverTwice, FateDelay: Stall}

// Record tallies a decided Outcome and writes its trace records; Deliver
// records nothing. Engines call it after charging the send, so a recording
// sink sees each charge before the fault it suffered (DESIGN.md §7 rule 8).
func (l *Link) Record(o Outcome) {
	switch o.Action {
	case Retry:
		l.stats.Drops++
		l.note(counterDrops, gaugeDrop, l.stats.Drops, o.at)
	case DeliverTwice:
		l.stats.Dups++
		l.note(counterDups, gaugeDup, l.stats.Dups, o.at)
	case Stall:
		l.stats.Delays++
		l.note(counterDelays, gaugeDelay, l.stats.Delays, o.at)
	case Lost:
		l.noteCrash(int(o.at.to), int(o.at.round))
		l.stats.CrashDrops++
		l.note(counterCrashDrops, gaugeCrashDrop, l.stats.CrashDrops, o.at)
	}
}

// CrashDrop tallies n sends lost together to a crash-stopped endpoint: a
// dead sender's whole queue, or a delayed send whose receiver crashed
// while it was in flight.
func (l *Link) CrashDrop(n int) {
	l.stats.CrashDrops += int64(n)
	l.trace.Counter(counterCrashDrops, int64(n))
}

// Abandon tallies n sends an engine stopped retransmitting at its retry
// cap; they count as drops.
func (l *Link) Abandon(n int) {
	l.stats.Drops += int64(n)
	l.trace.Counter(counterDrops, int64(n))
}

// noteCrash records a crash-stopped node the first time it is observed.
func (l *Link) noteCrash(v, round int) {
	if l.crashed[v] {
		return
	}
	if l.crashed == nil {
		l.crashed = make(map[int]bool)
	}
	l.crashed[v] = true
	l.stats.Crashes++
	l.note(counterCrashes, gaugeCrash, int64(l.stats.Crashes), site{round: int32(round), key: int32(v)})
}

// note writes one injected event: its counter, and its gauge sample,
// whose value names the event's key.
func (l *Link) note(counter, gauge string, seq int64, at site) {
	l.trace.Counter(counter, 1)
	l.trace.Gauge(gauge, int(seq), float64(at.key), int(at.round))
}
