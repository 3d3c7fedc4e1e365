package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"

	"distlap/internal/obs"
)

// SelfTest drives the whole request cycle against the handler in-process,
// with no sockets (load → list → solve → batch → flow → mst → evict → 404,
// checking the single solve is byte-identical to batch entry 0's
// derivation), then verifies the serving-metrics identities the cycle must
// have produced. It expects a fresh server: the identities count from
// zero. distlapd -selftest runs it as the daemon smoke test.
func (s *Server) SelfTest() error {
	h := s.Handler()
	do := func(method, path, body string) (int, []byte) {
		req := httptest.NewRequest(method, path, bytes.NewBufferString(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	expect := func(step string, code, want int, body []byte) error {
		if code != want {
			return fmt.Errorf("%s: status %d (want %d): %s", step, code, want, body)
		}
		return nil
	}

	code, body := do("POST", "/v1/graphs",
		`{"id":"self","graph":{"family":"grid","size":36},"seed":7,"eps":1e-6}`)
	if err := expect("load", code, http.StatusOK, body); err != nil {
		return err
	}
	code, body = do("GET", "/v1/graphs", "")
	if err := expect("list", code, http.StatusOK, body); err != nil {
		return err
	}
	if !bytes.Contains(body, []byte(`"id":"self"`)) {
		return fmt.Errorf("list: loaded instance missing: %s", body)
	}

	// One unit-demand RHS on the 6x6 grid (36 nodes, sum zero).
	b := make([]float64, 36)
	b[0], b[35] = 1, -1
	rhs := jsonFloats(b)
	code, single := do("POST", "/v1/graphs/self/solve", `{"b":`+rhs+`}`)
	if err := expect("solve", code, http.StatusOK, single); err != nil {
		return err
	}
	code, batch := do("POST", "/v1/graphs/self/solve", `{"bs":[`+rhs+`,`+rhs+`]}`)
	if err := expect("batch", code, http.StatusOK, batch); err != nil {
		return err
	}
	// Batch RHS 0 derives the same request seed as the single solve, so the
	// single response's sole result must appear verbatim inside the batch.
	if !bytes.Contains(batch, bytes.TrimSuffix(bytes.TrimPrefix(single, []byte(`{"results":[`)), []byte("]}\n"))) {
		return fmt.Errorf("batch entry 0 diverged from single solve")
	}

	code, body = do("POST", "/v1/graphs/self/flow", `{"s":0,"t":35}`)
	if err := expect("flow", code, http.StatusOK, body); err != nil {
		return err
	}
	code, body = do("POST", "/v1/graphs/self/mst", `{}`)
	if err := expect("mst", code, http.StatusOK, body); err != nil {
		return err
	}
	code, body = do("DELETE", "/v1/graphs/self", "")
	if err := expect("evict", code, http.StatusOK, body); err != nil {
		return err
	}
	code, body = do("POST", "/v1/graphs/self/solve", `{"b":`+rhs+`}`)
	if err := expect("post-evict solve", code, http.StatusNotFound, body); err != nil {
		return err
	}
	return checkMetricIdentities(do)
}

// checkMetricIdentities scrapes /metrics and /v1/statusz after the request
// cycle and verifies the accounting identities that must hold on the
// quiescent daemon: per-endpoint request counters sum to the served total
// (and to the status-class counters), latency histogram counts equal the
// per-endpoint request counts, cache hits + misses equal the instance
// lookups the cycle performed, and the deterministic exposition section is
// byte-stable under re-scrape.
func checkMetricIdentities(do func(method, path, body string) (int, []byte)) error {
	// The request cycle above: load, list, solve, batch, flow, mst, evict,
	// post-evict solve = 8 API requests; everything succeeded except the
	// final 404. Instance lookups: solve, batch, flow, mst hit; the
	// post-evict solve missed.
	const (
		wantRequests = 8
		want2xx      = 7
		want4xx      = 1
		wantHits     = 4
		wantMisses   = 1
	)

	code, first := do("GET", "/metrics", "")
	if code != http.StatusOK {
		return fmt.Errorf("metrics: status %d: %s", code, first)
	}
	code, second := do("GET", "/metrics", "")
	if code != http.StatusOK {
		return fmt.Errorf("metrics re-scrape: status %d: %s", code, second)
	}
	detA, _, okA := bytes.Cut(first, []byte(obs.WallClockMarker+"\n"))
	detB, _, okB := bytes.Cut(second, []byte(obs.WallClockMarker+"\n"))
	if !okA || !okB {
		return fmt.Errorf("metrics: exposition missing wall-clock marker")
	}
	if !bytes.Equal(detA, detB) {
		return fmt.Errorf("metrics: deterministic section changed under re-scrape:\n%s\nvs\n%s", detA, detB)
	}
	if !bytes.Contains(detA, []byte(fmt.Sprintf("distlapd_http_requests_served_total %d", wantRequests))) {
		return fmt.Errorf("metrics: served-total series missing or wrong:\n%s", detA)
	}

	code, body := do("GET", "/v1/statusz", "")
	if code != http.StatusOK {
		return fmt.Errorf("statusz: status %d: %s", code, body)
	}
	var sz StatuszResponse
	if err := json.Unmarshal(body, &sz); err != nil {
		return fmt.Errorf("statusz: %v: %s", err, body)
	}
	det := sz.Deterministic

	if det.RequestsTotal != wantRequests {
		return fmt.Errorf("statusz: requests_total = %d, want %d", det.RequestsTotal, wantRequests)
	}
	var byEndpoint, byClass int64
	var endpoints []string
	for ep, v := range det.RequestsByEndpoint { //distlint:allow maporder integer sum and a key list sorted below
		byEndpoint += v
		endpoints = append(endpoints, ep)
	}
	slices.Sort(endpoints)
	for _, v := range det.ResponsesByClass { //distlint:allow maporder integer sum; order-independent
		byClass += v
	}
	if byEndpoint != det.RequestsTotal || byClass != det.RequestsTotal {
		return fmt.Errorf("statusz: endpoint sum %d / class sum %d != total %d",
			byEndpoint, byClass, det.RequestsTotal)
	}
	if det.ResponsesByClass["2xx"] != want2xx || det.ResponsesByClass["4xx"] != want4xx {
		return fmt.Errorf("statusz: status classes %v, want %d 2xx + %d 4xx",
			det.ResponsesByClass, want2xx, want4xx)
	}
	if det.Cache.Hits != wantHits || det.Cache.Misses != wantMisses {
		return fmt.Errorf("statusz: cache hits/misses = %d/%d, want %d/%d",
			det.Cache.Hits, det.Cache.Misses, wantHits, wantMisses)
	}
	if det.Cache.Entries != 0 || det.Cache.Bytes != 0 || det.Cache.Evictions != 1 {
		return fmt.Errorf("statusz: cache occupancy after evict: %+v", det.Cache)
	}
	for _, ep := range endpoints {
		want := det.RequestsByEndpoint[ep]
		lat, ok := sz.WallClock.Latency[ep]
		if !ok || lat.Count != want {
			return fmt.Errorf("statusz: latency count for %q = %d, want %d (histogram counts must equal request counts)",
				ep, lat.Count, want)
		}
	}
	if det.EngineRounds["solve"] <= 0 || det.EngineRounds["flow"] <= 0 || det.EngineRounds["mst"] <= 0 {
		return fmt.Errorf("statusz: engine rounds missing endpoints: %v", det.EngineRounds)
	}

	code, body = do("GET", "/v1/healthz", "")
	if code != http.StatusOK {
		return fmt.Errorf("healthz: status %d: %s", code, body)
	}
	var hz HealthResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		return fmt.Errorf("healthz: %v: %s", err, body)
	}
	if hz.CacheEvictions != det.Cache.Evictions {
		return fmt.Errorf("healthz evictions %d != statusz evictions %d", hz.CacheEvictions, det.Cache.Evictions)
	}
	return nil
}

// jsonFloats renders xs as a JSON array.
func jsonFloats(xs []float64) string {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%g", x)
	}
	buf.WriteByte(']')
	return buf.String()
}
