package service

// Endpoint tests for the distlapd serving layer: the full request cycle
// (load → list → solve → batch → flow → mst → evict), the error surface
// (404 on unknown instances, 400 on malformed bodies, cancelled request
// contexts), byte-identical determinism across two independent daemon
// instantiations, and LRU eviction under a byte budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func doReq(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func mustStatus(t *testing.T, step string, got, want int, body []byte) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: status %d, want %d: %s", step, got, want, body)
	}
}

const loadGrid = `{"id":"g1","graph":{"family":"grid","size":36},"seed":3,"eps":1e-6}`

func unitRHS(n, s, t int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = "0"
	}
	parts[s], parts[t] = "1", "-1"
	return "[" + strings.Join(parts, ",") + "]"
}

func TestServerRequestCycle(t *testing.T) {
	h := New(Config{}).Handler()
	code, body := doReq(t, h, "POST", "/v1/graphs", loadGrid)
	mustStatus(t, "load", code, http.StatusOK, body)
	var load LoadResponse
	if err := json.Unmarshal(body, &load); err != nil {
		t.Fatalf("load response: %v", err)
	}
	if load.Instance.Nodes != 36 || load.Instance.SizeBytes <= 0 {
		t.Fatalf("load response off: %+v", load.Instance)
	}
	if load.Instance.SetupRounds != 0 {
		t.Fatalf("supported-mode load charged %d setup rounds", load.Instance.SetupRounds)
	}

	code, body = doReq(t, h, "GET", "/v1/graphs", "")
	mustStatus(t, "list", code, http.StatusOK, body)
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Instances) != 1 || list.Instances[0].ID != "g1" {
		t.Fatalf("list: %+v", list)
	}

	rhs := unitRHS(36, 0, 35)
	code, single := doReq(t, h, "POST", "/v1/graphs/g1/solve", `{"b":`+rhs+`}`)
	mustStatus(t, "solve", code, http.StatusOK, single)
	var sr SolveResponse
	if err := json.Unmarshal(single, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || len(sr.Results[0].X) != 36 || sr.Results[0].Residual > 1e-6 {
		t.Fatalf("solve response off: %+v", sr)
	}

	code, batch := doReq(t, h, "POST", "/v1/graphs/g1/solve", `{"bs":[`+rhs+`,`+rhs+`]}`)
	mustStatus(t, "batch", code, http.StatusOK, batch)
	var br SolveResponse
	if err := json.Unmarshal(batch, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch returned %d results", len(br.Results))
	}
	// Batch RHS 0 derives the same request seed as the single solve: the
	// single response's result must appear verbatim in the batch body.
	frag := bytes.TrimSuffix(bytes.TrimPrefix(single, []byte(`{"results":[`)), []byte("]}\n"))
	if !bytes.Contains(batch, frag) {
		t.Fatalf("batch entry 0 is not byte-identical to the single solve")
	}

	code, body = doReq(t, h, "POST", "/v1/graphs/g1/flow", `{"s":0,"t":35}`)
	mustStatus(t, "flow", code, http.StatusOK, body)
	var fr FlowResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Resistance <= 0 {
		t.Fatalf("flow resistance %v", fr.Resistance)
	}

	code, body = doReq(t, h, "POST", "/v1/graphs/g1/mst", `{}`)
	mustStatus(t, "mst", code, http.StatusOK, body)
	var mr MSTResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Edges) != 35 {
		t.Fatalf("mst on 36-node grid returned %d edges", len(mr.Edges))
	}

	code, body = doReq(t, h, "DELETE", "/v1/graphs/g1", "")
	mustStatus(t, "evict", code, http.StatusOK, body)
	code, body = doReq(t, h, "POST", "/v1/graphs/g1/solve", `{"b":`+rhs+`}`)
	mustStatus(t, "post-evict solve", code, http.StatusNotFound, body)
}

func TestServerErrorSurface(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"solve unknown id", "POST", "/v1/graphs/nope/solve", `{"b":[1,-1]}`, http.StatusNotFound},
		{"evict unknown id", "DELETE", "/v1/graphs/nope", "", http.StatusNotFound},
		{"load without id", "POST", "/v1/graphs", `{"graph":{"family":"grid","size":16}}`, http.StatusBadRequest},
		{"load bad family", "POST", "/v1/graphs", `{"id":"x","graph":{"family":"moebius","size":16}}`, http.StatusBadRequest},
		{"load bad mode", "POST", "/v1/graphs", `{"id":"x","graph":{"family":"grid","size":16},"mode":"quantum"}`, http.StatusBadRequest},
		{"load negative eps", "POST", "/v1/graphs", `{"id":"x","graph":{"family":"grid","size":16},"eps":-1}`, http.StatusBadRequest},
		{"load bad edge", "POST", "/v1/graphs", `{"id":"x","graph":{"n":2,"edges":[[0,5,1]]}}`, http.StatusBadRequest},
		{"malformed json", "POST", "/v1/graphs", `{"id":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/graphs", `{"id":"x","graf":{}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body := doReq(t, h, c.method, c.path, c.body)
		if code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, code, c.want, body)
		}
		if !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: error body missing envelope: %s", c.name, body)
		}
	}

	// Solve needs exactly one of b / bs.
	code, body := doReq(t, h, "POST", "/v1/graphs", loadGrid)
	mustStatus(t, "load", code, http.StatusOK, body)
	code, body = doReq(t, h, "POST", "/v1/graphs/g1/solve", `{}`)
	mustStatus(t, "empty solve", code, http.StatusBadRequest, body)
	code, body = doReq(t, h, "POST", "/v1/graphs/g1/solve", `{"b":[1,-1],"bs":[[1,-1]]}`)
	mustStatus(t, "both b and bs", code, http.StatusBadRequest, body)

	// A tolerance outside (0, 1) is rejected, never silently defaulted.
	code, body = doReq(t, h, "POST", "/v1/graphs/g1/solve", `{"b":`+unitRHS(36, 0, 35)+`,"eps":-1}`)
	mustStatus(t, "negative solve eps", code, http.StatusBadRequest, body)
	code, body = doReq(t, h, "POST", "/v1/graphs/g1/flow", `{"s":0,"t":35,"eps":-1}`)
	mustStatus(t, "negative flow eps", code, http.StatusBadRequest, body)
}

func TestServerCancelledContext(t *testing.T) {
	h := New(Config{}).Handler()
	code, body := doReq(t, h, "POST", "/v1/graphs", loadGrid)
	mustStatus(t, "load", code, http.StatusOK, body)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/graphs/g1/solve",
		strings.NewReader(`{"b":`+unitRHS(36, 0, 35)+`}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("cancelled solve: status %d, want %d: %s", rec.Code, http.StatusRequestTimeout, rec.Body.Bytes())
	}
}

// TestServerDeterministicAcrossInstantiations is the daemon determinism
// gate: two independently constructed Servers must answer an identical
// load + request sequence with byte-identical JSON bodies.
func TestServerDeterministicAcrossInstantiations(t *testing.T) {
	script := []struct{ method, path, body string }{
		{"POST", "/v1/graphs", loadGrid},
		{"GET", "/v1/graphs", ""},
		{"POST", "/v1/graphs/g1/solve", `{"b":` + unitRHS(36, 0, 35) + `}`},
		{"POST", "/v1/graphs/g1/solve", `{"bs":[` + unitRHS(36, 0, 35) + `,` + unitRHS(36, 3, 30) + `]}`},
		{"POST", "/v1/graphs/g1/solve", `{"b":` + unitRHS(36, 0, 35) + `,"seed":42,"eps":1e-4}`},
		{"POST", "/v1/graphs/g1/flow", `{"s":1,"t":34}`},
		{"POST", "/v1/graphs/g1/mst", `{}`},
	}
	run := func() [][]byte {
		h := New(Config{}).Handler()
		var out [][]byte
		for _, step := range script {
			code, body := doReq(t, h, step.method, step.path, step.body)
			mustStatus(t, step.method+" "+step.path, code, http.StatusOK, body)
			out = append(out, body)
		}
		return out
	}
	a, b := run(), run()
	for i := range script {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("step %d (%s %s): responses diverge across daemons:\n%s\nvs\n%s",
				i, script[i].method, script[i].path, a[i], b[i])
		}
	}
}

// TestServerLRUEviction loads instances past a tiny byte budget and checks
// the least-recently-used ones fall out, reported in the load response.
func TestServerLRUEviction(t *testing.T) {
	// One 16-node grid instance is comfortably past 1 KiB, so every load
	// beyond the first evicts the LRU entry.
	h := New(Config{CacheBytes: 1 << 10}).Handler()
	load := func(id string) *LoadResponse {
		body := fmt.Sprintf(`{"id":%q,"graph":{"family":"grid","size":16},"seed":1}`, id)
		code, resp := doReq(t, h, "POST", "/v1/graphs", body)
		mustStatus(t, "load "+id, code, http.StatusOK, resp)
		var lr LoadResponse
		if err := json.Unmarshal(resp, &lr); err != nil {
			t.Fatal(err)
		}
		return &lr
	}
	if lr := load("a"); len(lr.Evicted) != 0 {
		t.Fatalf("first load evicted %v", lr.Evicted)
	}
	if lr := load("b"); len(lr.Evicted) != 1 || lr.Evicted[0] != "a" {
		t.Fatalf("second load evicted %v, want [a]", lr.Evicted)
	}
	// Touch b, load c: b is recent but the budget only fits one, so b goes.
	code, body := doReq(t, h, "GET", "/v1/graphs", "")
	mustStatus(t, "list", code, http.StatusOK, body)
	var list ListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Instances) != 1 || list.Instances[0].ID != "b" {
		t.Fatalf("cache after eviction: %+v", list.Instances)
	}
	if lr := load("c"); len(lr.Evicted) != 1 || lr.Evicted[0] != "b" {
		t.Fatalf("third load evicted %v, want [b]", lr.Evicted)
	}
}

// TestCacheLRUOrder pins the cache's recency discipline directly: touching
// an entry via get saves it from the next eviction sweep.
func TestCacheLRUOrder(t *testing.T) {
	c := newInstanceCache(100, cacheStats{})
	put := func(id string, size int64) []string {
		return c.put(id, nil, InstanceInfo{ID: id, SizeBytes: size})
	}
	if ev := put("a", 40); len(ev) != 0 {
		t.Fatalf("put a evicted %v", ev)
	}
	if ev := put("b", 40); len(ev) != 0 {
		t.Fatalf("put b evicted %v", ev)
	}
	// Touch a so b becomes LRU; the next insert must evict b, not a.
	if _, ok := c.get("a"); !ok {
		t.Fatal("get a failed")
	}
	if ev := put("c", 40); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("put c evicted %v, want [b]", ev)
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a was evicted despite being recently used")
	}
}
