// Package obs is the serving-side metrics subsystem: counters, gauges and
// fixed-bucket histograms behind a registry with a deterministic snapshot
// API. It is the counterpart of internal/simtrace for the serving path —
// simtrace records where a simulated execution's rounds went; obs records
// what a running daemon did with real requests (counts, cache behaviour,
// latency) so distlapd can expose Prometheus text and JSON status pages.
//
// Determinism obligations: every metric is registered as either
// deterministic (its value is a pure function of the request sequence and
// the configured seeds — request counts, status classes, cache accounting,
// engine rounds/messages) or wall-clock (latency, uptime — anything a real
// clock feeds). Snapshots iterate families and series in sorted order, and
// the Prometheus exposition writes the deterministic section first, then a
// marker, then the wall-clock section — so two daemons replaying the same
// request sequence produce byte-identical deterministic sections, gateable
// exactly like traces and BENCH metrics. The package itself never reads
// the clock: callers observe durations into wall-clock histograms.
//
// Handles (Counter, Gauge, Histogram) are safe for concurrent use; the
// hot-path operations (Inc/Add/Set/Observe) never allocate.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind names a metric family's type in snapshots and expositions.
type Kind string

// Metric family kinds (the Prometheus exposition TYPE names).
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing count. The zero value is usable.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error; the counter stays
// monotone only if callers respect that).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into the
// first bucket whose upper bound is >= the value (Prometheus `le`
// semantics, inclusive), with an implicit +Inf overflow bucket. Bounds are
// fixed at construction, so bucket assignment is a pure function of the
// observed value — a histogram over a deterministic quantity (engine
// rounds) is itself deterministic.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	sum    float64
	count  int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := bucketIndex(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// bucketIndex returns the index of the bucket v falls into: the first
// bound with v <= bound, or len(bounds) for the +Inf overflow bucket.
// Binary search keeps Observe O(log buckets).
func bucketIndex(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LatencyBuckets are the default request-latency bounds in seconds:
// log-spaced from 100µs to 60s, chosen so sub-millisecond cache hits and
// multi-second worst-case solves land in distinct, stable buckets.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
	}
}

// PowerOfTwoBuckets returns the bounds 2^lo, 2^(lo+1), ..., 2^hi — the
// standard shape for deterministic count-like quantities (engine rounds
// per request), matching simtrace's power-of-two load histograms.
func PowerOfTwoBuckets(lo, hi int) []float64 {
	if lo > hi {
		panic(fmt.Sprintf("obs: PowerOfTwoBuckets(%d, %d): lo > hi", lo, hi))
	}
	out := make([]float64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, float64(int64(1)<<e))
	}
	return out
}

// family is one registered metric family: a name, kind and determinism
// class, plus its label-keyed series.
type family struct {
	name          string
	help          string
	kind          Kind
	deterministic bool
	labelKey      string    // "" for scalar families
	bounds        []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label value -> *Counter | *Gauge | *Histogram
}

// handle returns the series handle for a label value, creating it on first
// use. The double map lookup stays off the hot path: callers hold vec
// handles (CounterVec.With) once and reuse the returned pointer.
func (f *family) handle(labelValue string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[labelValue]; ok {
		return h
	}
	var h any
	switch f.kind {
	case KindCounter:
		h = &Counter{}
	case KindGauge:
		h = &Gauge{}
	case KindHistogram:
		h = &Histogram{bounds: f.bounds, counts: make([]int64, len(f.bounds)+1)}
	}
	f.series[labelValue] = h
	return h
}

// Registry holds metric families and produces deterministic snapshots.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates a family, panicking on a duplicate name: metric names
// are program constants, so a collision is a bug worth failing loudly on.
func (r *Registry) register(name, help string, kind Kind, det bool, labelKey string, bounds []float64) *family {
	if len(bounds) > 0 {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: %s: bucket bounds not strictly increasing at %d", name, i))
			}
		}
	}
	f := &family{
		name: name, help: help, kind: kind, deterministic: det,
		labelKey: labelKey, bounds: bounds, series: make(map[string]any),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	r.families[name] = f
	return f
}

// Counter registers a scalar counter family and returns its sole handle.
func (r *Registry) Counter(name, help string, det bool) *Counter {
	return r.register(name, help, KindCounter, det, "", nil).handle("").(*Counter)
}

// Gauge registers a scalar gauge family and returns its sole handle.
func (r *Registry) Gauge(name, help string, det bool) *Gauge {
	return r.register(name, help, KindGauge, det, "", nil).handle("").(*Gauge)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, det bool, labelKey string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, det, labelKey, nil)}
}

// With returns the counter for a label value, creating it on first use.
func (v *CounterVec) With(labelValue string) *Counter { return v.f.handle(labelValue).(*Counter) }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, det bool, labelKey string, bounds []float64) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, det, labelKey, bounds)}
}

// With returns the histogram for a label value, creating it on first use.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.f.handle(labelValue).(*Histogram) }

// SeriesSnapshot is one series' frozen state inside a Snapshot.
type SeriesSnapshot struct {
	LabelValue string // "" for scalar families

	// Counter / gauge value.
	Value int64

	// Histogram state: per-bucket (non-cumulative) counts, one per bound
	// plus the +Inf overflow; Count and Sum are the totals.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 < q < 1) of a histogram series by
// linear interpolation inside the selected bucket (the standard
// fixed-bucket estimator). The overflow bucket answers its lower bound —
// an honest "at least this much". A histogram with no observations
// answers 0.
func (s SeriesSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		prev := seen
		seen += float64(c)
		if seen < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// FamilySnapshot is one family's frozen state: its metadata plus the
// series sorted by label value.
type FamilySnapshot struct {
	Name          string
	Help          string
	Kind          Kind
	Deterministic bool
	LabelKey      string
	Series        []SeriesSnapshot
}

// Snapshot is a consistent-enough point-in-time view of a registry:
// families sorted by name, series sorted by label value. (Individual
// handles are read without a global lock, so a snapshot taken while
// requests are in flight is per-metric atomic, not cross-metric atomic —
// scraped identities hold exactly on a quiescent daemon.)
type Snapshot struct {
	Families []FamilySnapshot
}

// Family returns the named family snapshot, or a zero value when absent.
func (s Snapshot) Family(name string) (FamilySnapshot, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnapshot{}, false
}

// Snapshot freezes the registry in deterministic order.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	out := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{
			Name: f.name, Help: f.help, Kind: f.kind,
			Deterministic: f.deterministic, LabelKey: f.labelKey,
		}
		f.mu.Lock()
		labels := make([]string, 0, len(f.series))
		for lv := range f.series {
			labels = append(labels, lv)
		}
		sort.Strings(labels)
		for _, lv := range labels {
			ss := SeriesSnapshot{LabelValue: lv}
			switch h := f.series[lv].(type) {
			case *Counter:
				ss.Value = h.Value()
			case *Gauge:
				ss.Value = h.Value()
			case *Histogram:
				h.mu.Lock()
				ss.Bounds = f.bounds
				ss.Counts = append([]int64(nil), h.counts...)
				ss.Count = h.count
				ss.Sum = h.sum
				h.mu.Unlock()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		out.Families = append(out.Families, fs)
	}
	return out
}
