package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the le (inclusive upper bound)
// semantics: a value exactly on a bound lands in that bound's bucket, a
// hair above falls through to the next, and values past the last bound
// land in the +Inf overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, // inclusive: v == bound stays in bucket
		{1.0000001, 1}, {2, 1},
		{3, 2}, {4, 2},
		{8, 3},
		{8.1, 4}, {1e9, 4}, // overflow bucket
		{-5, 0}, // below every bound: first bucket
	}
	for _, c := range cases {
		if got := bucketIndex(bounds, c.v); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}

	r := NewRegistry()
	h := r.Histogram("h", "test", true, bounds)
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := r.Snapshot()
	f, ok := snap.Family("h")
	if !ok || len(f.Series) != 1 {
		t.Fatalf("snapshot missing histogram family: %+v", snap)
	}
	s := f.Series[0]
	wantCounts := []int64{4, 2, 2, 1, 2}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
	}
	for i := range wantCounts {
		if s.Counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	if s.Count != 11 {
		t.Fatalf("count = %d, want 11", s.Count)
	}
}

func TestPowerOfTwoBuckets(t *testing.T) {
	got := PowerOfTwoBuckets(0, 3)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("PowerOfTwoBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PowerOfTwoBuckets = %v, want %v", got, want)
		}
	}
}

// TestHistogramQuantile pins the linear-interpolation estimator on a known
// distribution: 10 observations spread uniformly through [0, 10) with
// bounds every 2.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "test", true, []float64{2, 4, 6, 8, 10})
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5) // two observations per bucket
	}
	s := r.Snapshot().Families[0].Series[0]
	// Median: rank 5 falls in the middle of the third bucket's first obs —
	// bucket (4,6], rank-within-bucket 1 of 2 → 4 + 2*(1/2) = 5.
	if got := s.Quantile(0.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	// p90: rank 9 → bucket (8,10], 1 of 2 → 9.
	if got := s.Quantile(0.9); math.Abs(got-9) > 1e-12 {
		t.Fatalf("p90 = %v, want 9", got)
	}
	// Empty histogram answers 0.
	empty := SeriesSnapshot{Bounds: []float64{1}, Counts: []int64{0, 0}}
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// Everything in the overflow bucket answers the last bound.
	r2 := NewRegistry()
	h2 := r2.Histogram("o", "test", true, []float64{1, 2})
	h2.Observe(100)
	if got := r2.Snapshot().Families[0].Series[0].Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want last bound 2", got)
	}
}

// TestPromExpositionByteStable: two snapshots of the same state marshal to
// identical bytes, series and families appear sorted, and the wall-clock
// marker separates deterministic from wall-clock families regardless of
// registration order.
func TestPromExpositionByteStable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		lat := r.HistogramVec("z_latency_seconds", "wall-clock latency", false, "endpoint", []float64{0.001, 1})
		lat.With("solve").Observe(0.0005)
		reqs := r.CounterVec("a_requests_total", "requests", true, "endpoint")
		reqs.With("solve").Add(2)
		reqs.With("flow").Inc()
		r.Gauge("m_in_flight", "gauge", true).Set(3)
		return r
	}
	var a, b bytes.Buffer
	if err := WriteProm(&a, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("exposition not byte-stable:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	text := a.String()
	det, wall, found := strings.Cut(text, WallClockMarker+"\n")
	if !found {
		t.Fatalf("exposition missing wall-clock marker:\n%s", text)
	}
	if !strings.Contains(det, `a_requests_total{endpoint="flow"} 1`) ||
		!strings.Contains(det, `a_requests_total{endpoint="solve"} 2`) ||
		!strings.Contains(det, "m_in_flight 3") {
		t.Fatalf("deterministic section wrong:\n%s", det)
	}
	if strings.Contains(det, "z_latency_seconds") {
		t.Fatalf("wall-clock family leaked into the deterministic section:\n%s", det)
	}
	if !strings.Contains(wall, `z_latency_seconds_bucket{endpoint="solve",le="0.001"} 1`) ||
		!strings.Contains(wall, `z_latency_seconds_bucket{endpoint="solve",le="+Inf"} 1`) ||
		!strings.Contains(wall, `z_latency_seconds_count{endpoint="solve"} 1`) {
		t.Fatalf("wall-clock histogram section wrong:\n%s", wall)
	}
	// flow sorts before solve within the family.
	if strings.Index(det, `endpoint="flow"`) > strings.Index(det, `endpoint="solve"`) {
		t.Fatalf("series not sorted by label value:\n%s", det)
	}
	if got := DeterministicSection(build().Snapshot()); got != det {
		t.Fatalf("DeterministicSection diverges from WriteProm's upper half:\n%s\nvs\n%s", got, det)
	}
}

func TestCounterVecSumIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "test", true, "k")
	v.With("a").Add(3)
	v.With("b").Add(4)
	v.With("c").Inc()
	if got := v.Sum(); got != 8 {
		t.Fatalf("Sum = %d, want 8", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "one", true)
	r.Counter("dup", "two", true)
}

// failAfter fails every write after the first n bytes.
type failAfter struct {
	n       int
	written bytes.Buffer
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written.Len() >= f.n {
		return 0, errors.New("disk full")
	}
	return f.written.Write(p)
}

func TestAccessLogPoisonsOnError(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf)
	l.Log(AccessRecord{ID: "req-1", Method: "POST", Path: "/v1/graphs", Endpoint: "load", Status: 200, BytesOut: 10, DurationMicros: 5})
	l.Log(AccessRecord{ID: "req-2", Method: "GET", Path: "/v1/graphs", Endpoint: "list", Status: 200})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	if lines[0] != `{"id":"req-1","method":"POST","path":"/v1/graphs","endpoint":"load","status":200,"bytes_out":10,"duration_us":5}` {
		t.Fatalf("unexpected record encoding: %s", lines[0])
	}

	fl := NewAccessLog(&failAfter{n: 1})
	fl.Log(AccessRecord{ID: "req-1"})
	fl.Log(AccessRecord{ID: "req-2"})
	if fl.Err() == nil {
		t.Fatal("write error did not poison the log")
	}

	var nilLog *AccessLog
	nilLog.Log(AccessRecord{}) // must not panic
	if nilLog.Err() != nil {
		t.Fatal("nil log reported an error")
	}
	if NewAccessLog(io.Writer(nil)) != nil {
		t.Fatal("NewAccessLog(nil) should return a nil log")
	}
}
