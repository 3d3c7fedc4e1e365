package simtrace

import "math"

// Recorder captures the raw event sequence of a traced execution so it can
// be replayed later into another collector, byte-for-byte equivalent to
// having traced into that collector directly. It is the mechanism behind
// the deterministic parallel experiment harness (DESIGN.md §7): each sweep
// point traces into its own private Recorder on a worker goroutine, and
// the harness replays the recorders into the shared sink in canonical
// sweep order — so the sink observes the exact event stream a sequential
// run would have produced, regardless of worker interleaving.
//
// Recording is the hot path of every traced run (two events per delivered
// word), so events are stored compactly: names are interned into a small
// table (the vocabulary — engine labels, phase names, counter and gauge
// series — is static and tiny), and the 24-byte pointer-free event records
// live in fixed-size chunks, so appending never re-copies or re-zeroes the
// whole history the way a doubling slice would.
//
// A Recorder is NOT safe for concurrent use; the contract is one Recorder
// per goroutine, with Replay called only after the recording goroutine is
// done (the harness's WaitGroup provides the happens-before edge).
type Recorder struct {
	chunks [][]event // full chunks, oldest first
	cur    []event   // chunk currently being filled

	names  []string // intern table: id -> name
	nameID map[string]uint16
	last   string // most recent name (charges repeat one engine label)
	lastID uint16
}

// recorderChunk is the event capacity of one storage chunk (32768 events,
// 768 KiB): large enough to amortize allocation, small enough that short
// recordings stay cheap.
const recorderChunk = 1 << 15

// event is one recorded Collector call in 24 pointer-free bytes. kind
// selects which fields are live; name indexes the recorder's intern table;
// a and b carry the small operands (dirEdge/from/step and to/rounds) and n
// the quantity — for Gauge, the IEEE-754 bits of the sampled value.
type event struct {
	name uint16
	kind eventKind
	a, b int32
	n    int64
}

type eventKind uint8

const (
	evBegin eventKind = iota
	evEnd
	evRounds
	evMessages
	evNodeWords
	evCounter
	evGauge
)

var _ Collector = (*Recorder)(nil)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// intern maps a name to its table id, adding it on first sight. The
// single-entry cache makes the overwhelmingly common case — the same engine
// label on every charge — a pointer-and-length string compare.
func (r *Recorder) intern(name string) uint16 {
	if name == r.last && r.names != nil {
		return r.lastID
	}
	id, ok := r.nameID[name]
	if !ok {
		if r.nameID == nil {
			r.nameID = make(map[string]uint16)
		}
		id = uint16(len(r.names))
		r.names = append(r.names, name)
		r.nameID[name] = id
	}
	r.last, r.lastID = name, id
	return id
}

// add appends one event, rolling to a fresh chunk when the current one is
// full. No existing event is ever moved or re-zeroed.
func (r *Recorder) add(e event) {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.chunks = append(r.chunks, r.cur)
		}
		r.cur = make([]event, 0, recorderChunk)
	}
	r.cur = append(r.cur, e)
}

// Begin implements Collector.
func (r *Recorder) Begin(name string) {
	r.add(event{kind: evBegin, name: r.intern(name)})
}

// End implements Collector.
func (r *Recorder) End(name string) {
	r.add(event{kind: evEnd, name: r.intern(name)})
}

// Rounds implements Collector.
func (r *Recorder) Rounds(engine string, n int) {
	r.add(event{kind: evRounds, name: r.intern(engine), n: int64(n)})
}

// Messages implements Collector.
func (r *Recorder) Messages(engine string, dirEdge int, n int64) {
	r.add(event{kind: evMessages, name: r.intern(engine), a: int32(dirEdge), n: n})
}

// NodeWords implements Collector.
func (r *Recorder) NodeWords(engine string, from, to int, n int64) {
	r.add(event{kind: evNodeWords, name: r.intern(engine), a: int32(from), b: int32(to), n: n})
}

// Counter implements Collector.
func (r *Recorder) Counter(name string, n int64) {
	r.add(event{kind: evCounter, name: r.intern(name), n: n})
}

// Gauge implements Collector.
func (r *Recorder) Gauge(name string, step int, value float64, rounds int) {
	r.add(event{kind: evGauge, name: r.intern(name),
		a: int32(step), b: int32(rounds), n: int64(math.Float64bits(value))})
}

// Flush implements Collector. Flushing a recording is a no-op: the
// recorded execution's sink is flushed by whoever owns it, after Replay.
func (r *Recorder) Flush() error { return nil }

// Replay re-issues the recorded events, in order, against into. Calling
// Replay on a nil or empty recorder is a no-op; Replay does not call
// into.Flush.
func (r *Recorder) Replay(into Collector) {
	if r == nil {
		return
	}
	for _, c := range r.chunks {
		replayChunk(c, r.names, into)
	}
	replayChunk(r.cur, r.names, into)
}

func replayChunk(events []event, names []string, into Collector) {
	for i := range events {
		e := &events[i]
		name := names[e.name]
		switch e.kind {
		case evBegin:
			into.Begin(name)
		case evEnd:
			into.End(name)
		case evRounds:
			into.Rounds(name, int(e.n))
		case evMessages:
			into.Messages(name, int(e.a), e.n)
		case evNodeWords:
			into.NodeWords(name, int(e.a), int(e.b), e.n)
		case evCounter:
			into.Counter(name, e.n)
		case evGauge:
			into.Gauge(name, int(e.a), math.Float64frombits(uint64(e.n)), int(e.b))
		}
	}
}
