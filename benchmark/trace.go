package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"distlap"
)

// span is one timed interval of an operation: its root (http.<endpoint>,
// distlap.<method>, experiments.<ID> or a kernel call), or a solver phase
// reported through the operation's Collector. Spans of one operation share
// Op; Parent is the ID of the enclosing span, -1 for the root. Rounds,
// Messages and Faults are the charges made while the span was innermost.
type span struct {
	Op       int64            `json:"op"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Rounds   int64            `json:"rounds,omitempty"`
	Messages int64            `json:"messages,omitempty"`
	Faults   map[string]int64 `json:"faults,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps every finished operation's spans in memory until the run
// writes them out. Operations may finish on several client goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens the root span of a new operation. A nil recorder returns a
// nil opTrace, whose methods do nothing: untraced runs pay one nil check.
func (r *recorder) begin(name string) *opTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	op := r.next
	r.next++
	r.mu.Unlock()
	t := &opTrace{r: r, op: op}
	t.open(name)
	return t
}

// opTrace records one operation's spans. It is the benchmark's
// simtrace.Collector: it reads the clock only in Begin and End, tallies
// rounds, messages and fault.* counters for the innermost span, and never
// returns anything to the solver, so it cannot change what the solver does.
type opTrace struct {
	r     *recorder
	op    int64
	spans []span
	stack []int
}

var _ distlap.Collector = (*opTrace)(nil)

func (t *opTrace) open(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, StartNS: t.r.now()})
	t.stack = append(t.stack, id)
}

func (t *opTrace) close() {
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = t.r.now()
}

func (t *opTrace) top() *span { return &t.spans[t.stack[len(t.stack)-1]] }

// finish closes every open span, the root last, and hands the operation's
// spans to the recorder.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	for len(t.stack) > 0 {
		t.close()
	}
	t.r.mu.Lock()
	t.r.spans = append(t.r.spans, t.spans...)
	t.r.mu.Unlock()
}

// collector returns t as a request collector, or nil when untraced.
func (t *opTrace) collector() distlap.Collector {
	if t == nil {
		return nil
	}
	return t
}

// Begin implements simtrace.Collector.
func (t *opTrace) Begin(name string) { t.open(name) }

// End implements simtrace.Collector. The root span stays open: only
// finish closes it.
func (t *opTrace) End(string) {
	if len(t.stack) > 1 {
		t.close()
	}
}

// Rounds implements simtrace.Collector.
func (t *opTrace) Rounds(_ string, n int) { t.top().Rounds += int64(n) }

// Messages implements simtrace.Collector.
func (t *opTrace) Messages(_ string, _ int, n int64) { t.top().Messages += n }

// NodeWords implements simtrace.Collector.
func (t *opTrace) NodeWords(string, int, int, int64) {}

// Counter implements simtrace.Collector: fault.* counters are kept.
func (t *opTrace) Counter(name string, n int64) {
	if !strings.HasPrefix(name, "fault.") {
		return
	}
	s := t.top()
	if s.Faults == nil {
		s.Faults = map[string]int64{}
	}
	s.Faults[name] += n
}

// Gauge implements simtrace.Collector.
func (t *opTrace) Gauge(string, int, float64, int) {}

// Flush implements simtrace.Collector.
func (t *opTrace) Flush() error { return nil }

// spanKey identifies a span across operations.
type spanKey struct {
	op int64
	id int
}

// spanIndex answers the structural questions self-time accounting needs.
type spanIndex struct {
	spans    []span
	byKey    map[spanKey]int
	childDur map[spanKey]int64
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byKey: map[spanKey]int{}, childDur: map[spanKey]int64{}}
	for i, s := range spans {
		ix.byKey[spanKey{s.Op, s.ID}] = i
		if s.Parent >= 0 {
			ix.childDur[spanKey{s.Op, s.Parent}] += s.dur()
		}
	}
	return ix
}

// self is a span's duration minus the durations of its children. The
// children of one span run on one goroutine, one after another, so they
// never overlap.
func (ix *spanIndex) self(i int) int64 {
	s := &ix.spans[i]
	return s.dur() - ix.childDur[spanKey{s.Op, s.ID}]
}

// path joins the names from below the root down to span i with ".", so a
// solver phase reads "solve.precond.sweep"; a root's path is "".
func (ix *spanIndex) path(i int) string {
	var names []string
	for s := &ix.spans[i]; s.Parent >= 0; s = &ix.spans[ix.byKey[spanKey{s.Op, s.Parent}]] {
		names = append(names, s.Name)
	}
	for a, b := 0, len(names)-1; a < b; a, b = a+1, b-1 {
		names[a], names[b] = names[b], names[a]
	}
	return strings.Join(names, ".")
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return w.Flush()
}
