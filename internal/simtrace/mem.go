package simtrace

import "sort"

// PhaseStat is the exclusive (own-charge) summary of one phase path across
// all of its instances: rounds and messages charged while this exact path
// was the innermost open span. The empty path "" collects charges made with
// no span open ("untracked").
type PhaseStat struct {
	Path     string // slash-joined span names, e.g. "solve/precond/sweep"
	Count    int    // number of span instances opened at this path
	Rounds   int    // rounds attributed to this path (exclusive of children)
	Messages int64  // word-messages attributed to this path (exclusive)
}

// EdgeLoad is the total word count carried by one directed edge of one
// engine over the traced execution.
type EdgeLoad struct {
	Engine string
	Edge   int // directed edge id (2*edge for U->V, 2*edge+1 for V->U)
	Words  int64
}

// NodeLoad is the total word count attributed to one node of one engine
// over the traced execution (each delivery charges both endpoints).
// NodeLoadHistogram reuses the type with Node holding the power-of-two
// bucket index instead of a node id.
type NodeLoad struct {
	Engine string
	Node   int
	Words  int64
}

// CounterStat is one named counter's accumulated value.
type CounterStat struct {
	Name  string
	Value int64
}

// GaugeSample is one observation of a named telemetry series: the emitter's
// step (iteration) index, the observed value, and the communication rounds
// elapsed when the sample was taken.
type GaugeSample struct {
	Step   int
	Value  float64
	Rounds int
}

// EngineTotal is one engine's accumulated rounds and messages.
type EngineTotal struct {
	Engine   string
	Rounds   int
	Messages int64
}

// frame is one open span instance; rounds/messages are the instance's own
// (exclusive) charges, consumed by the JSONL sink's per-instance end events.
type frame struct {
	name     string
	path     string
	rounds   int
	messages int64
}

// loadArr is a dense per-id word accumulator (directed-edge or node loads):
// a flat array grown on demand, where a zero entry means "never charged"
// (every charge is positive, so zero is unambiguous).
type loadArr struct{ w []int64 }

func (a *loadArr) add(i int, n int64) {
	if i >= len(a.w) {
		if i < cap(a.w) {
			a.w = a.w[:i+1]
		} else {
			grown := make([]int64, i+1, 2*(i+1))
			copy(grown, a.w)
			a.w = grown
		}
	}
	a.w[i] += n
}

// InMemory aggregates trace events into queryable summaries. It is the
// workhorse sink for tests and benchmarks and the aggregation core of the
// JSONL sink. The zero value is not usable; call NewInMemory.
//
// The charge methods (Rounds, Messages, NodeWords) are on the hot path of
// every traced replay — two calls per delivered word — so their state is
// laid out for constant-time updates: the innermost phase stat is cached
// between Begin/End transitions, per-engine structures are cached behind a
// one-entry name check (the engine label rarely changes between charges),
// and per-edge/per-node loads are flat arrays indexed by id rather than
// maps.
type InMemory struct {
	stack    []frame
	stats    map[string]*PhaseStat
	cur      *PhaseStat // stat of the innermost open path; nil until first untracked charge
	counters map[string]int64
	engines  map[string]*EngineTotal
	edges    map[string]*loadArr      // engine -> directed-edge loads
	nodes    map[string]*loadArr      // engine -> node loads
	gauges   map[string][]GaugeSample // series name -> samples in emission order

	lastEngName string
	lastEng     *EngineTotal
	lastEdgeEng string
	lastEdges   *loadArr
	lastNodeEng string
	lastNodes   *loadArr
}

var _ Collector = (*InMemory)(nil)
var _ PhaseQuerier = (*InMemory)(nil)

// NewInMemory returns an empty in-memory collector.
func NewInMemory() *InMemory {
	return &InMemory{
		stats:    make(map[string]*PhaseStat),
		counters: make(map[string]int64),
		engines:  make(map[string]*EngineTotal),
		edges:    make(map[string]*loadArr),
		nodes:    make(map[string]*loadArr),
		gauges:   make(map[string][]GaugeSample),
	}
}

// path returns the innermost open phase path ("" when no span is open).
func (m *InMemory) path() string {
	if len(m.stack) == 0 {
		return ""
	}
	return m.stack[len(m.stack)-1].path
}

func (m *InMemory) stat(path string) *PhaseStat {
	st := m.stats[path]
	if st == nil {
		st = &PhaseStat{Path: path}
		m.stats[path] = st
	}
	return st
}

// Begin implements Collector.
func (m *InMemory) Begin(name string) {
	p := name
	if parent := m.path(); parent != "" {
		p = parent + "/" + name
	}
	m.stack = append(m.stack, frame{name: name, path: p})
	st := m.stat(p)
	st.Count++
	m.cur = st
}

// End implements Collector. An End with no open span is ignored (the
// tracephase analyzer rejects such code statically).
func (m *InMemory) End(name string) {
	if len(m.stack) == 0 {
		return
	}
	m.stack = m.stack[:len(m.stack)-1]
	// May be nil when the stack empties and "" was never charged; curStat
	// re-creates it lazily so the untracked bucket appears only if used.
	m.cur = m.stats[m.path()]
}

// curStat returns the stat of the innermost open path (the cached pointer on
// the hot path; one lazy lookup after the stack empties).
func (m *InMemory) curStat() *PhaseStat {
	if m.cur == nil {
		m.cur = m.stat(m.path())
	}
	return m.cur
}

// Rounds implements Collector.
func (m *InMemory) Rounds(engine string, n int) {
	if n <= 0 {
		return
	}
	m.curStat().Rounds += n
	if len(m.stack) > 0 {
		m.stack[len(m.stack)-1].rounds += n
	}
	m.engine(engine).Rounds += n
}

// Messages implements Collector.
func (m *InMemory) Messages(engine string, dirEdge int, n int64) {
	if n <= 0 {
		return
	}
	m.curStat().Messages += n
	if len(m.stack) > 0 {
		m.stack[len(m.stack)-1].messages += n
	}
	m.engine(engine).Messages += n
	if dirEdge >= 0 {
		m.edgeArr(engine).add(dirEdge, n)
	}
}

// NodeWords implements Collector: charges n words to each in-range endpoint.
func (m *InMemory) NodeWords(engine string, from, to int, n int64) {
	if n <= 0 {
		return
	}
	byNode := m.nodeArr(engine)
	if from >= 0 {
		byNode.add(from, n)
	}
	if to >= 0 {
		byNode.add(to, n)
	}
}

func (m *InMemory) edgeArr(engine string) *loadArr {
	if engine == m.lastEdgeEng && m.lastEdges != nil {
		return m.lastEdges
	}
	a := m.edges[engine]
	if a == nil {
		a = &loadArr{}
		m.edges[engine] = a
	}
	m.lastEdgeEng, m.lastEdges = engine, a
	return a
}

func (m *InMemory) nodeArr(engine string) *loadArr {
	if engine == m.lastNodeEng && m.lastNodes != nil {
		return m.lastNodes
	}
	a := m.nodes[engine]
	if a == nil {
		a = &loadArr{}
		m.nodes[engine] = a
	}
	m.lastNodeEng, m.lastNodes = engine, a
	return a
}

// edgeLoad reports the accumulated words on one directed edge (the series
// sink's running-max probe).
func (m *InMemory) edgeLoad(engine string, dirEdge int) int64 {
	if a := m.edges[engine]; a != nil && dirEdge < len(a.w) {
		return a.w[dirEdge]
	}
	return 0
}

// Counter implements Collector.
func (m *InMemory) Counter(name string, n int64) { m.counters[name] += n }

// Gauge implements Collector: appends one sample to the named series.
func (m *InMemory) Gauge(name string, step int, value float64, rounds int) {
	m.gauges[name] = append(m.gauges[name], GaugeSample{Step: step, Value: value, Rounds: rounds})
}

// Flush implements Collector (no-op for the in-memory sink).
func (m *InMemory) Flush() error { return nil }

func (m *InMemory) engine(name string) *EngineTotal {
	if name == m.lastEngName && m.lastEng != nil {
		return m.lastEng
	}
	e := m.engines[name]
	if e == nil {
		e = &EngineTotal{Engine: name}
		m.engines[name] = e
	}
	m.lastEngName, m.lastEng = name, e
	return e
}

// Phases returns the per-path exclusive summaries sorted by path. The ""
// (untracked) bucket is included when it received charges.
func (m *InMemory) Phases() []PhaseStat {
	paths := make([]string, 0, len(m.stats))
	for p := range m.stats {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]PhaseStat, 0, len(paths))
	for _, p := range paths {
		out = append(out, *m.stats[p])
	}
	return out
}

// PhaseRounds returns the exclusive rounds attributed to the exact path.
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) PhaseRounds(path string) int {
	if st := m.stats[path]; st != nil {
		return st.Rounds
	}
	return 0
}

// Counters returns all counters sorted by name.
func (m *InMemory) Counters() []CounterStat {
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]CounterStat, 0, len(names))
	for _, n := range names {
		out = append(out, CounterStat{Name: n, Value: m.counters[n]})
	}
	return out
}

// CounterValue returns one counter's value (0 if never incremented).
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) CounterValue(name string) int64 { return m.counters[name] }

// Engines returns per-engine totals sorted by engine name.
func (m *InMemory) Engines() []EngineTotal {
	names := make([]string, 0, len(m.engines))
	for n := range m.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]EngineTotal, 0, len(names))
	for _, n := range names {
		out = append(out, *m.engines[n])
	}
	return out
}

// EngineRounds returns the total rounds recorded for one engine.
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) EngineRounds(engine string) int {
	if e := m.engines[engine]; e != nil {
		return e.Rounds
	}
	return 0
}

// TotalRounds returns the rounds recorded across all engines.
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) TotalRounds() int {
	total := 0
	for _, e := range m.Engines() {
		total += e.Rounds
	}
	return total
}

// TopEdges returns the k most loaded directed edges of one engine, sorted by
// descending load with edge id as the deterministic tiebreak (the flat array
// is scanned in ascending id order, so the stable sort preserves it).
func (m *InMemory) TopEdges(engine string, k int) []EdgeLoad {
	out := []EdgeLoad{}
	if a := m.edges[engine]; a != nil {
		for de, w := range a.w {
			if w != 0 {
				out = append(out, EdgeLoad{Engine: engine, Edge: de, Words: w})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Words > out[b].Words })
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// LoadHistogram buckets one engine's directed-edge loads into power-of-two
// buckets: bucket b counts edges with load in (2^(b-1), 2^b]. Returned as
// (bucket, count) pairs sorted by bucket.
func (m *InMemory) LoadHistogram(engine string) []EdgeLoad {
	buckets := make(map[int]int64)
	if a := m.edges[engine]; a != nil {
		for _, w := range a.w {
			if w != 0 {
				buckets[loadBucket(w)]++
			}
		}
	}
	bs := make([]int, 0, len(buckets))
	for b := range buckets {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	out := make([]EdgeLoad, 0, len(bs))
	for _, b := range bs {
		out = append(out, EdgeLoad{Engine: engine, Edge: b, Words: buckets[b]})
	}
	return out
}

// TopNodes returns the k most loaded nodes of one engine, sorted by
// descending word count with node id as the deterministic tiebreak.
func (m *InMemory) TopNodes(engine string, k int) []NodeLoad {
	out := []NodeLoad{}
	if a := m.nodes[engine]; a != nil {
		for v, w := range a.w {
			if w != 0 {
				out = append(out, NodeLoad{Engine: engine, Node: v, Words: w})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Words > out[b].Words })
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// NodeLoadHistogram buckets one engine's node loads into power-of-two
// buckets, mirroring LoadHistogram: bucket b counts nodes with load in
// (2^(b-1), 2^b]. Returned as (bucket, count) pairs sorted by bucket, with
// the bucket index carried in Node.
func (m *InMemory) NodeLoadHistogram(engine string) []NodeLoad {
	buckets := make(map[int]int64)
	if a := m.nodes[engine]; a != nil {
		for _, w := range a.w {
			if w != 0 {
				buckets[loadBucket(w)]++
			}
		}
	}
	bs := make([]int, 0, len(buckets))
	for b := range buckets {
		bs = append(bs, b)
	}
	sort.Ints(bs)
	out := make([]NodeLoad, 0, len(bs))
	for _, b := range bs {
		out = append(out, NodeLoad{Engine: engine, Node: b, Words: buckets[b]})
	}
	return out
}

// Gauges returns the names of all recorded telemetry series, sorted.
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) Gauges() []string {
	names := make([]string, 0, len(m.gauges))
	for n := range m.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeSeries returns one series' samples in emission order (nil if the
// series was never sampled).
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) GaugeSeries(name string) []GaugeSample { return m.gauges[name] }

// loadBucket returns ceil(log2(words)): the power-of-two histogram bucket.
func loadBucket(words int64) int {
	b := 0
	for lim := int64(1); lim < words; lim *= 2 {
		b++
	}
	return b
}

// OpenSpans returns the number of currently open spans (test helper).
//
//distlint:allow testonly the public distlap.NewInMemoryTrace returns this collector, so its read API is how callers query a trace
func (m *InMemory) OpenSpans() int { return len(m.stack) }
