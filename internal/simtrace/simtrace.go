// Package simtrace is the simulator's observability layer: a
// zero-dependency, deterministic instrumentation substrate the congest and
// ncc engines emit into.
//
// The paper's only metric is measured communication — rounds and O(log n)-bit
// messages — so the trace model is built around *attribution*, not time:
// algorithms open nested phase spans (Begin/End), and every round or
// word-message the engines charge while a span is open is attributed to the
// innermost open phase (its full path, e.g. "solve/precond/shortcut-build").
// Per-phase attribution is *exclusive*: a parent phase's own rounds exclude
// its children's, so summing over all phase paths (plus the "" untracked
// bucket) reproduces the engine's total round count exactly. That identity is
// what cmd/simtrace verifies when rendering a trace.
//
// Determinism contract: collectors never consult the wall clock, never
// iterate maps without sorting keys, and carry no nondeterministic state, so
// for a fixed seed the event stream — and the JSONL sink's byte output — is
// identical across runs. Collectors must also never feed back into the
// execution: they observe charges, they do not alter scheduling, RNG state,
// or metrics. The Nop collector makes the whole layer free when tracing is
// off.
package simtrace

// Engine names used by the built-in engines. Layered-graph simulations
// (Lemma 16) label their sub-networks "layered" so their internally-simulated
// rounds are not conflated with rounds charged on the base network.
const (
	EngineCongest = "congest"
	EngineNCC     = "ncc"
	EngineLayered = "layered"
)

// NoEdge is passed to Messages by engines that have no (directed) edge
// identity for a delivery — e.g. the NCC clique, where any node may message
// any other.
const NoEdge = -1

// Collector receives instrumentation events from the engines and phase
// annotations from the algorithm layers. Implementations must be
// deterministic (no wall clock, no unsorted map iteration) and must not
// influence the traced execution.
//
// Spans nest: Begin pushes a phase onto the collector's stack, End pops it.
// Engines call Rounds/Messages/Counter at their charging sites; collectors
// attribute each charge to the innermost open phase.
type Collector interface {
	// Begin opens a phase span named name nested under the current one.
	Begin(name string)
	// End closes the innermost span. name must match the corresponding
	// Begin (collectors may use it for validation; the pairing itself is
	// enforced statically by the distlint tracephase analyzer).
	End(name string)
	// Rounds records n synchronous rounds charged by the named engine.
	Rounds(engine string, n int)
	// Messages records n word-messages crossing directed edge dirEdge on
	// the named engine (NoEdge when the engine has no edge identity).
	Messages(engine string, dirEdge int, n int64)
	// NodeWords attributes n word-messages to their endpoint nodes on the
	// named engine: the sender from and the receiver to each accumulate n
	// words (a negative endpoint skips that side). Engines call it
	// alongside Messages; it mirrors the directed-edge accounting at node
	// granularity and never contributes to the engine's message totals.
	NodeWords(engine string, from, to int, n int64)
	// Counter adds n to the named free-form counter (e.g. "ncc.drops").
	Counter(name string, n int64)
	// Gauge records one sample of the named telemetry series — e.g. a
	// solver's residual norm: step is the emitter's iteration index, value
	// the observation, and rounds the communication rounds elapsed on the
	// emitting network when the sample was taken (so series can be plotted
	// against the paper's cost metric, not wall time).
	Gauge(name string, step int, value float64, rounds int)
	// Flush finalizes the sink (writes summaries for streaming sinks).
	Flush() error
}

// Nop is the default collector: every method is an empty shell, so traced
// code paths cost one interface dispatch and nothing else.
type Nop struct{}

var _ Collector = Nop{}

// Begin implements Collector.
func (Nop) Begin(string) {}

// End implements Collector.
func (Nop) End(string) {}

// Rounds implements Collector.
func (Nop) Rounds(string, int) {}

// Messages implements Collector.
func (Nop) Messages(string, int, int64) {}

// NodeWords implements Collector.
func (Nop) NodeWords(string, int, int, int64) {}

// Counter implements Collector.
func (Nop) Counter(string, int64) {}

// Gauge implements Collector.
func (Nop) Gauge(string, int, float64, int) {}

// Flush implements Collector.
func (Nop) Flush() error { return nil }

// OrNop returns c, or Nop if c is nil — engines store the result so emission
// sites never nil-check.
func OrNop(c Collector) Collector {
	if c == nil {
		return Nop{}
	}
	return c
}

// PhaseQuerier is implemented by collectors that can report per-phase
// summaries (InMemory, and JSONL via its embedded aggregator). Callers that
// want a phase breakdown from an arbitrary Collector type-assert against
// this.
type PhaseQuerier interface {
	Phases() []PhaseStat
}
