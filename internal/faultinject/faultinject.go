// Package faultinject defines deterministic fault plans for the simulated
// communication engines: message drops, duplications, delivery delays,
// crash-stop nodes, and flaky links with per-round failure probability.
//
// The paper's model (like the shortcut framework it builds on) assumes a
// reliable synchronous network; the ROADMAP's north star is a service that
// must survive an unreliable one. A Plan is the bridge: engines consult it
// at their round barriers and perturb delivery accordingly, so experiments
// can measure how the solver detects and recovers from imperfect execution.
//
// Determinism obligations (DESIGN.md §9): every fault decision is a pure
// function of (Spec.Seed, decision kind, round, edge-or-node identity),
// computed by chaining internal/seedderive derivations — a Plan holds no
// RNG and consumes no randomness stream. Two consequences the chaos tier
// relies on: (a) a faulty run is byte-identical across repeats and across
// `-parallel` widths, because decisions cannot depend on evaluation order;
// (b) an engine that replays the same rounds over the same edges observes
// the same faults, regardless of what any other engine did.
//
// A nil *Plan means a reliable network; engines charge nothing for the
// possibility of faults. Engines consult a plan through a Link (link.go),
// the one kernel that turns decisions into per-send outcomes and keeps the
// fault tally and trace records.
package faultinject

import (
	"fmt"

	"distlap/internal/seedderive"
)

// Fate is the outcome a Plan assigns to one message crossing one link in
// one round.
type Fate int

// Message fates. FateDeliver is the zero value: a nil or quiescent plan
// always delivers.
const (
	// FateDeliver delivers the message normally.
	FateDeliver Fate = iota
	// FateDrop loses the message in flight: the send is charged (the
	// bandwidth was spent) but the receiver never sees it.
	FateDrop
	// FateDup delivers the message twice (a retransmission artifact); both
	// crossings are charged.
	FateDup
	// FateDelay postpones delivery by Verdict.Delay rounds: the message
	// stays in flight and arrives at a later round barrier, stale.
	FateDelay
)

// String implements fmt.Stringer for diagnostics and trace labels.
func (f Fate) String() string {
	switch f {
	case FateDeliver:
		return "deliver"
	case FateDrop:
		return "drop"
	case FateDup:
		return "dup"
	case FateDelay:
		return "delay"
	}
	return fmt.Sprintf("fate(%d)", int(f))
}

// Verdict is a Plan's full decision for one message: the fate and, for
// FateDelay, the number of additional rounds the message spends in flight.
type Verdict struct {
	Fate  Fate
	Delay int // rounds of extra flight time; set only for FateDelay (≥ 1)
}

// deliver is the zero Verdict, returned on every reliable path.
var deliver = Verdict{}

// Spec declares a fault plan. The zero Spec is the reliable network; any
// probability may be set independently. All probabilities are per-decision:
// DropProb applies to each (message, round) pair, CrashProb to each node,
// FlakyLinkProb to each undirected edge.
type Spec struct {
	// Seed drives every fault decision. Two plans with equal specs make
	// identical decisions; changing only the engine seed (as the solver's
	// retry path does) re-aligns which logical messages meet which faults
	// without changing the fault process itself.
	Seed int64

	// DropProb is the probability a message is lost in flight.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a message is delayed; the delay is
	// uniform in [1, MaxDelay] rounds.
	DelayProb float64
	// MaxDelay bounds delivery delay in rounds (0 selects 3 when
	// DelayProb > 0).
	MaxDelay int

	// CrashProb is the per-node probability of crash-stop failure: a
	// crashed node sends nothing from its crash round on, and messages
	// addressed to it vanish on arrival.
	CrashProb float64
	// CrashWindow bounds crash rounds: a crashing node halts at a round
	// uniform in [1, CrashWindow] (0 selects 32).
	CrashWindow int

	// FlakyLinkProb is the per-undirected-edge probability that the link
	// is flaky; a flaky link additionally drops each crossing message with
	// probability FlakyDropProb, every round, in both directions.
	FlakyLinkProb float64
	// FlakyDropProb is the per-round, per-message drop probability on
	// flaky links (0 selects 0.5 when FlakyLinkProb > 0).
	FlakyDropProb float64
}

// Enabled reports whether the spec can produce any fault at all.
func (s Spec) Enabled() bool {
	return s.DropProb > 0 || s.DupProb > 0 || s.DelayProb > 0 ||
		s.CrashProb > 0 || s.FlakyLinkProb > 0
}

// Stats counts the faults an engine has injected under a plan. The counts
// live beside — never inside — the engine's metrics: rounds/messages stay
// the measured cost of what the (faulty) execution actually did, and the
// fault tally is reported separately so recovery layers can surface it.
type Stats struct {
	Drops      int64 // messages lost in flight (including flaky-link drops)
	Dups       int64 // messages delivered twice
	Delays     int64 // messages delivered late
	CrashDrops int64 // messages lost to a crash-stopped endpoint
	Crashes    int   // distinct crash-stopped nodes observed acting
}

// Total returns the number of injected fault events (crashed nodes count
// once each, not per suppressed message).
func (s Stats) Total() int64 {
	return s.Drops + s.Dups + s.Delays + s.CrashDrops + int64(s.Crashes)
}

// Add accumulates other into s (for summing stats across engines or
// attempts).
func (s *Stats) Add(other Stats) {
	s.Drops += other.Drops
	s.Dups += other.Dups
	s.Delays += other.Delays
	s.CrashDrops += other.CrashDrops
	s.Crashes += other.Crashes
}

// Plan is a compiled fault spec. It is stateless and safe for concurrent
// use; engines may share one plan across requests (decisions depend only on
// round and identity arguments).
type Plan struct {
	spec          Spec
	maxDelay      int
	crashWindow   int
	flakyDropProb float64
}

// New validates a spec and returns its plan. A spec with no enabled fault
// returns (nil, nil): callers pass the nil plan through and engines keep
// their reliable fast path.
func New(spec Spec) (*Plan, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", spec.DropProb},
		{"DupProb", spec.DupProb},
		{"DelayProb", spec.DelayProb},
		{"CrashProb", spec.CrashProb},
		{"FlakyLinkProb", spec.FlakyLinkProb},
		{"FlakyDropProb", spec.FlakyDropProb},
	} {
		if !(p.v >= 0 && p.v <= 1) { // written so that NaN fails too
			return nil, fmt.Errorf("faultinject: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if sum := spec.DropProb + spec.DupProb + spec.DelayProb; sum > 1 {
		return nil, fmt.Errorf("faultinject: drop+dup+delay probability %g exceeds 1", sum)
	}
	if spec.MaxDelay < 0 {
		return nil, fmt.Errorf("faultinject: negative MaxDelay %d", spec.MaxDelay)
	}
	if spec.CrashWindow < 0 {
		return nil, fmt.Errorf("faultinject: negative CrashWindow %d", spec.CrashWindow)
	}
	if !spec.Enabled() {
		return nil, nil
	}
	p := &Plan{
		spec:          spec,
		maxDelay:      spec.MaxDelay,
		crashWindow:   spec.CrashWindow,
		flakyDropProb: spec.FlakyDropProb,
	}
	if p.maxDelay == 0 {
		p.maxDelay = 3
	}
	if p.crashWindow == 0 {
		p.crashWindow = 32
	}
	if p.flakyDropProb == 0 {
		p.flakyDropProb = 0.5
	}
	return p, nil
}

// MustNew is New for static specs in tests and experiments; it panics on a
// validation error.
func MustNew(spec Spec) *Plan {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// The decision kinds, each hashed once: a link decision derives from two
// of them, and it runs once per message per round.
var (
	kindCrash       = seedderive.PhaseOf("fault/crash")
	kindCrashRound  = seedderive.PhaseOf("fault/crash-round")
	kindFlakyLink   = seedderive.PhaseOf("fault/flaky-link")
	kindFlakyRound  = seedderive.PhaseOf("fault/flaky-round")
	kindLink        = seedderive.PhaseOf("fault/link")
	kindLinkDelay   = seedderive.PhaseOf("fault/link-delay")
	kindClique      = seedderive.PhaseOf("fault/clique")
	kindCliqueDelay = seedderive.PhaseOf("fault/clique-delay")
	phaseSecond     = seedderive.PhaseOf("faultinject")
)

// u returns the decision variate for (kind, a, b): uniform in [0, 1), a
// pure function of the plan seed and its arguments. The two-level derive
// keys the kind and first argument into the phase hash, then mixes the
// second argument through an independent avalanche, so decision families
// never share variates.
func (p *Plan) u(kind seedderive.Phase, a, b int64) float64 {
	h := phaseSecond.Derive(kind.Derive(p.spec.Seed, a), b)
	return float64(uint64(h)>>11) / (1 << 53)
}

// Crashed reports whether node v has crash-stopped by the given round
// (1-based engine rounds). Crash-stop is permanent: once true for a round,
// it is true for every later round.
func (p *Plan) Crashed(v int, round int) bool {
	if p == nil || p.spec.CrashProb == 0 {
		return false
	}
	if p.u(kindCrash, int64(v), 0) >= p.spec.CrashProb {
		return false
	}
	crashRound := 1 + int(p.u(kindCrashRound, int64(v), 0)*float64(p.crashWindow))
	return round >= crashRound
}

// FlakyLink reports whether undirected edge id is flaky under the plan.
func (p *Plan) FlakyLink(edge int) bool {
	if p == nil || p.spec.FlakyLinkProb == 0 {
		return false
	}
	return p.u(kindFlakyLink, int64(edge), 0) < p.spec.FlakyLinkProb
}

// Link decides the fate of one message crossing directed edge de (encoded
// as 2*edge+direction, the congest engine's convention) at the given round.
func (p *Plan) Link(round, de int) Verdict {
	if p == nil {
		return deliver
	}
	if p.FlakyLink(de/2) && p.u(kindFlakyRound, int64(round), int64(de)) < p.flakyDropProb {
		return Verdict{Fate: FateDrop}
	}
	return p.fate(kindLink, kindLinkDelay, int64(round), int64(de))
}

// Clique decides the fate of one clique message from → to at the given
// round (the NCC engine has no edge identity; flaky links do not apply).
func (p *Plan) Clique(round, from, to int) Verdict {
	if p == nil {
		return deliver
	}
	key := int64(from)<<32 | int64(uint32(to))
	return p.fate(kindClique, kindCliqueDelay, int64(round), key)
}

// fate partitions one uniform variate into the drop/dup/delay/deliver
// bands and draws the delay magnitude from an independent variate.
func (p *Plan) fate(kind, delayKind seedderive.Phase, a, b int64) Verdict {
	s := &p.spec
	if s.DropProb == 0 && s.DupProb == 0 && s.DelayProb == 0 {
		return deliver
	}
	x := p.u(kind, a, b)
	if x < s.DropProb {
		return Verdict{Fate: FateDrop}
	}
	x -= s.DropProb
	if x < s.DupProb {
		return Verdict{Fate: FateDup}
	}
	x -= s.DupProb
	if x < s.DelayProb {
		d := 1 + int(p.u(delayKind, a, b)*float64(p.maxDelay))
		if d > p.maxDelay {
			d = p.maxDelay
		}
		return Verdict{Fate: FateDelay, Delay: d}
	}
	return deliver
}
