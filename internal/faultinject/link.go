package faultinject

import "distlap/internal/simtrace"

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
	// DeliverTwice hands the send over twice: it was duplicated in flight.
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

	round, key, to int // the coordinates Record notes
}

// Link is one engine's fault bookkeeping under a Plan: the sender and
// receiver crash checks, the mapping from a Verdict to an Outcome, the
// Stats tally, the crashed nodes seen and the fault.* trace records. The
// engine keeps only what an Outcome does to its own queues and charges, so
// a new engine gets the whole fault model from these methods. A Link with
// a nil Plan is the reliable network, which engines never consult per
// message. A Link belongs to one engine and, like it, to one goroutine.
type Link struct {
	Plan  *Plan
	Trace simtrace.Collector // receives the fault.* records; non-nil whenever Plan is

	stats   Stats
	crashed map[int]bool // crash-stopped nodes already noted
}

// Stats returns the faults injected so far (zero on a reliable Link).
func (l *Link) Stats() Stats { return l.stats }

// SenderDown reports whether node v has crash-stopped by the given round,
// noting the crash the first time it is observed. A crashed sender sends
// nothing: the engine skips it, or drops its queue through CrashDrop.
func (l *Link) SenderDown(v, round int) bool {
	if !l.Plan.Crashed(v, round) {
		return false
	}
	l.noteCrash(v, round)
	return true
}

// Edge decides the fate of one send crossing directed edge de (the congest
// engine's 2*edge+direction encoding) toward node to in the given round.
func (l *Link) Edge(round, de, to int) Outcome {
	if l.Plan.Crashed(to, round) {
		return Outcome{Action: Lost, round: round, key: de, to: to}
	}
	vd := l.Plan.Link(round, de)
	return Outcome{Action: actions[vd.Fate], Delay: vd.Delay, round: round, key: de, to: to}
}

// Clique decides the fate of one clique message from → to in the given
// round. The clique has no edge identity, so its records name the receiver.
func (l *Link) Clique(round, from, to int) Outcome {
	if l.Plan.Crashed(to, round) {
		return Outcome{Action: Lost, round: round, key: to, to: to}
	}
	vd := l.Plan.Clique(round, from, to)
	return Outcome{Action: actions[vd.Fate], Delay: vd.Delay, round: round, key: to, to: to}
}

// actions maps a verdict's fate to the reliable transport's action: a drop
// is retried, a duplicate delivered twice, a delay stalls.
var actions = [...]Action{FateDeliver: Deliver, FateDrop: Retry, FateDup: DeliverTwice, FateDelay: Stall}

// Record tallies a decided Outcome and writes its trace records; Deliver
// records nothing. Engines call it after charging the send, so a recording
// sink sees each charge before the fault it suffered (DESIGN.md §7 rule 8).
func (l *Link) Record(o Outcome) {
	switch o.Action {
	case Retry:
		l.stats.Drops++
		l.note(counterDrops, gaugeDrop, l.stats.Drops, o.key, o.round)
	case DeliverTwice:
		l.stats.Dups++
		l.note(counterDups, gaugeDup, l.stats.Dups, o.key, o.round)
	case Stall:
		l.stats.Delays++
		l.note(counterDelays, gaugeDelay, l.stats.Delays, o.key, o.round)
	case Lost:
		l.noteCrash(o.to, o.round)
		l.stats.CrashDrops++
		l.note(counterCrashDrops, gaugeCrashDrop, l.stats.CrashDrops, o.key, o.round)
	}
}

// CrashDrop tallies n sends lost together to a crash-stopped endpoint: a
// dead sender's whole queue, or a delayed send whose receiver crashed
// while it was in flight.
func (l *Link) CrashDrop(n int) {
	l.stats.CrashDrops += int64(n)
	l.Trace.Counter(counterCrashDrops, int64(n))
}

// Abandon tallies n sends an engine stopped retransmitting at its retry
// cap; they count as drops.
func (l *Link) Abandon(n int) {
	l.stats.Drops += int64(n)
	l.Trace.Counter(counterDrops, int64(n))
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
	l.note(counterCrashes, gaugeCrash, int64(l.stats.Crashes), v, round)
}

// note writes one injected event: its counter, and its gauge sample.
func (l *Link) note(counter, gauge string, seq int64, val, round int) {
	l.Trace.Counter(counter, 1)
	l.Trace.Gauge(gauge, int(seq), float64(val), round)
}
