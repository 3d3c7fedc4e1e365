package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"distlap"
	"distlap/internal/obs"
)

// DefaultCacheBytes is the instance-cache budget when Config.CacheBytes is
// zero: roomy enough for the experiment-scale graphs this repository
// simulates, small enough that a load test exercises eviction.
const DefaultCacheBytes int64 = 64 << 20

// Config configures a Server.
type Config struct {
	// CacheBytes bounds the summed SizeBytes of cached instances
	// (0 selects DefaultCacheBytes). One oversized instance may exceed it;
	// the budget bounds the herd.
	CacheBytes int64
	// MaxBodyBytes bounds every request body (0 selects
	// DefaultMaxBodyBytes); oversized bodies are rejected with a
	// structured 400 before JSON decoding reads past the cap.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served requests (0 selects
	// DefaultMaxInFlight); excess requests get 503 + Retry-After.
	MaxInFlight int
	// RequestTimeout bounds one request's wall time (0 selects
	// DefaultRequestTimeout); expiry surfaces as a retryable 503.
	RequestTimeout time.Duration
	// AccessLog, when non-nil, receives one JSONL record per served API
	// request (observability endpoints are not logged). The first write
	// error poisons the log; Server.AccessLogErr reports it.
	AccessLog io.Writer
}

// Server is the distlapd HTTP service: a JSON API over a byte-budgeted LRU
// cache of prepared solver instances.
//
//	POST   /v1/graphs             load a graph, prepare + cache its instance
//	GET    /v1/graphs             list cached instances (sorted by id)
//	DELETE /v1/graphs/{id}        evict one instance
//	POST   /v1/graphs/{id}/solve  solve one RHS or a multi-RHS batch
//	POST   /v1/graphs/{id}/flow   unit s-t electrical flow
//	POST   /v1/graphs/{id}/mst    distributed minimum spanning tree
//
// Handlers run concurrently under net/http; the cache is mutex-guarded and
// the instances themselves are immutable (concurrent solves are the point
// of the prepared-Instance API). Responses are deterministic: identical
// requests against identically-configured daemons are byte-identical.
type Server struct {
	cache      *instanceCache
	mux        *http.ServeMux
	maxBody    int64
	sem        chan struct{} // in-flight admission semaphore (harden.go)
	reqTimeout time.Duration

	met       *serverMetrics // serving-path metric registry (metrics.go)
	accessLog *obs.AccessLog // nil when access logging is disabled
	reqID     atomic.Int64   // request-ID source; "req-<n>" correlates log lines
	start     time.Time      // process start, for statusz uptime
}

// New returns a Server with its routes installed.
func New(cfg Config) *Server {
	budget := cfg.CacheBytes
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = DefaultMaxInFlight
	}
	reqTimeout := cfg.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	met := newServerMetrics()
	met.cacheBudget.Set(budget)
	s := &Server{
		cache:      newInstanceCache(budget, met.cacheStats()),
		mux:        http.NewServeMux(),
		maxBody:    maxBody,
		sem:        make(chan struct{}, inFlight),
		reqTimeout: reqTimeout,
		met:        met,
		accessLog:  obs.NewAccessLog(cfg.AccessLog),
		start:      time.Now(),
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleLoad)
	s.mux.HandleFunc("GET /v1/graphs", s.handleList)
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.handleEvict)
	s.mux.HandleFunc("POST /v1/graphs/{id}/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/graphs/{id}/flow", s.handleFlow)
	s.mux.HandleFunc("POST /v1/graphs/{id}/mst", s.handleMST)
	s.mux.HandleFunc("GET "+healthzPath, s.handleHealthz)
	s.mux.HandleFunc("GET "+metricsPath, s.handleMetrics)
	s.mux.HandleFunc("GET "+statuszPath, s.handleStatusz)
	return s
}

// Handler returns the Server's HTTP handler: the route mux wrapped in the
// hardening chain of harden.go (panic recovery, admission control,
// per-request deadlines), all inside the instrumentation middleware of
// metrics.go — outermost so the 500s panic recovery writes and the 503s
// the admission gate writes are counted like any other response.
func (s *Server) Handler() http.Handler { return s.instrument(s.harden(s.mux)) }

// AccessLogErr reports the access log's first write error (nil while
// healthy or when access logging is disabled).
func (s *Server) AccessLogErr() error { return s.accessLog.Err() }

// GraphSpec describes the graph to load: an explicit edge list or a named
// standard family with an approximate target size.
type GraphSpec struct {
	N      int        `json:"n,omitempty"`
	Edges  [][3]int64 `json:"edges,omitempty"` // [u, v, weight]
	Family string     `json:"family,omitempty"`
	Size   int        `json:"size,omitempty"`
}

func (gs *GraphSpec) build() (*distlap.Graph, error) {
	if gs.Family != "" {
		if gs.Size <= 0 {
			return nil, errors.New("family graphs need a positive size")
		}
		for _, f := range distlap.Families() {
			if f.Name == gs.Family {
				return f.Make(gs.Size), nil
			}
		}
		return nil, fmt.Errorf("unknown graph family %q", gs.Family)
	}
	if gs.N <= 0 {
		return nil, errors.New("graph needs n > 0 or a family")
	}
	g := distlap.NewGraph(gs.N)
	for i, e := range gs.Edges {
		if _, err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return g, nil
}

// LoadRequest is the body of POST /v1/graphs.
type LoadRequest struct {
	ID        string    `json:"id"`
	Graph     GraphSpec `json:"graph"`
	Mode      string    `json:"mode,omitempty"` // universal|congest|baseline|hybrid
	Eps       float64   `json:"eps,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Chebyshev bool      `json:"chebyshev,omitempty"`
	Lo        float64   `json:"lo,omitempty"`
	Hi        float64   `json:"hi,omitempty"`
}

// LoadResponse reports the prepared instance and any cache evictions the
// load forced.
type LoadResponse struct {
	Instance InstanceInfo `json:"instance"`
	Evicted  []string     `json:"evicted,omitempty"`
}

func parseMode(s string) (distlap.Mode, error) {
	switch distlap.Mode(s) {
	case "":
		return distlap.ModeUniversal, nil
	case distlap.ModeUniversal, distlap.ModeCongest, distlap.ModeBaseline, distlap.ModeHybrid:
		return distlap.Mode(s), nil
	}
	return "", fmt.Errorf("unknown mode %q", s)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "instance id is required")
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := req.Graph.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := []distlap.Option{distlap.WithMode(mode), distlap.WithEps(req.Eps), distlap.WithSeed(req.Seed)}
	if req.Chebyshev {
		opts = append(opts, distlap.WithChebyshev(req.Lo, req.Hi))
	}
	inst, err := distlap.NewSolver(opts...).Prepare(r.Context(), g)
	if err != nil {
		writeSolveError(w, r, err)
		return
	}
	setup := inst.SetupMetrics()
	s.recordEngine(epLoad, setup)
	info := InstanceInfo{
		ID:            req.ID,
		Nodes:         g.N(),
		Edges:         g.M(),
		Mode:          string(mode),
		Eps:           effEps(req.Eps),
		Seed:          req.Seed,
		SizeBytes:     inst.SizeBytes(),
		SetupRounds:   setup.TotalRounds(),
		SetupMessages: setup.Congest.Messages,
	}
	evicted := s.cache.put(req.ID, inst, info)
	writeJSON(w, http.StatusOK, LoadResponse{Instance: info, Evicted: evicted})
}

func effEps(eps float64) float64 {
	if eps > 0 {
		return eps
	}
	return 1e-8
}

// ListResponse is the body of GET /v1/graphs.
type ListResponse struct {
	Instances  []InstanceInfo `json:"instances"`
	TotalBytes int64          `json:"total_bytes"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := s.cache.list()
	if list == nil {
		list = []InstanceInfo{}
	}
	writeJSON(w, http.StatusOK, ListResponse{Instances: list, TotalBytes: s.cache.totalBytes()})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.cache.evict(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

// SolveRequest is the body of POST /v1/graphs/{id}/solve: one RHS in B, or
// a multi-RHS batch in Batch (exactly one of the two). Seed, when present,
// pins the engine seed for the request (all RHS of a batch); otherwise
// seeds derive deterministically from the instance seed and the RHS index.
type SolveRequest struct {
	B     []float64   `json:"b,omitempty"`
	Batch [][]float64 `json:"bs,omitempty"`
	Eps   float64     `json:"eps,omitempty"`
	Seed  *int64      `json:"seed,omitempty"`
}

// SolveResult is one right-hand side's outcome.
type SolveResult struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Rounds     int       `json:"rounds"`
	Messages   int64     `json:"messages"`
}

// SolveResponse is the body of a successful solve. Results has one entry
// per right-hand side (a single B behaves as a batch of one).
type SolveResponse struct {
	Results []SolveResult `json:"results"`
}

func requestOpts(eps float64, seed *int64) []distlap.ReqOption {
	opts := []distlap.ReqOption{distlap.WithRequestEps(eps)}
	if seed != nil {
		opts = append(opts, distlap.WithRequestSeed(*seed))
	}
	return opts
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if (len(req.B) == 0) == (len(req.Batch) == 0) {
		writeError(w, http.StatusBadRequest, "provide exactly one of b or bs")
		return
	}
	bs := req.Batch
	if len(bs) == 0 {
		bs = [][]float64{req.B}
	}
	results, err := inst.SolveBatch(r.Context(), bs, requestOpts(req.Eps, req.Seed)...)
	if err != nil {
		writeSolveError(w, r, err)
		return
	}
	resp := SolveResponse{Results: make([]SolveResult, len(results))}
	for i, res := range results {
		s.recordEngine(epSolve, res.Metrics)
		resp.Results[i] = SolveResult{
			X:          res.X,
			Iterations: res.Iterations,
			Residual:   res.Residual,
			Rounds:     res.Rounds,
			Messages:   res.Metrics.Congest.Messages,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// FlowRequest is the body of POST /v1/graphs/{id}/flow.
type FlowRequest struct {
	S    int     `json:"s"`
	T    int     `json:"t"`
	Eps  float64 `json:"eps,omitempty"`
	Seed *int64  `json:"seed,omitempty"`
}

// FlowResponse reports a unit s-t electrical flow.
type FlowResponse struct {
	Resistance float64 `json:"resistance"`
	Iterations int     `json:"iterations"`
	Rounds     int     `json:"rounds"`
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req FlowRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	fl, err := inst.Flow(r.Context(), req.S, req.T, requestOpts(req.Eps, req.Seed)...)
	if err != nil {
		writeSolveError(w, r, err)
		return
	}
	s.recordEngine(epFlow, fl.Metrics)
	writeJSON(w, http.StatusOK, FlowResponse{
		Resistance: fl.Resistance,
		Iterations: fl.Iterations,
		Rounds:     fl.Rounds,
	})
}

// MSTRequest is the body of POST /v1/graphs/{id}/mst.
type MSTRequest struct {
	Seed *int64 `json:"seed,omitempty"`
}

// MSTResponse reports a distributed minimum-spanning-tree run.
type MSTResponse struct {
	Weight int64 `json:"weight"`
	Edges  []int `json:"edges"`
	Phases int   `json:"phases"`
	Rounds int   `json:"rounds"`
}

func (s *Server) handleMST(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instance(w, r)
	if !ok {
		return
	}
	var req MSTRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, err := inst.MST(r.Context(), requestOpts(0, req.Seed)...)
	if err != nil {
		writeSolveError(w, r, err)
		return
	}
	s.recordEngine(epMST, res.Metrics)
	edges := res.Edges
	if edges == nil {
		edges = []int{}
	}
	writeJSON(w, http.StatusOK, MSTResponse{
		Weight: res.Weight,
		Edges:  edges,
		Phases: res.Phases,
		Rounds: res.Rounds,
	})
}

// instance resolves the {id} path value against the cache, writing the 404
// itself when absent.
func (s *Server) instance(w http.ResponseWriter, r *http.Request) (*distlap.Instance, bool) {
	id := r.PathValue("id")
	inst, ok := s.cache.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no instance %q", id))
		return nil, false
	}
	return inst, true
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// decodeBody decodes a JSON request body under the server's hardening
// rules: the body is capped at maxBody bytes (http.MaxBytesReader — an
// oversized payload is rejected after reading at most the cap, with a
// structured 400 naming the limit) and unknown fields are rejected (a
// typo'd field silently ignored would return a confidently wrong answer).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusBadRequest,
				"request body exceeds "+s.maxBytesHint()+" bytes")
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// writeSolveError maps engine errors to HTTP statuses. A request whose
// deadline (the server's own RequestTimeout) expired answers a retryable
// 503 with Retry-After — the server ran out of patience, not the client.
// A context the client cancelled answers 408 (499's closest standard
// cousin). Everything else is a 400: all remaining engine failures are
// input-shaped (bad RHS, bad terminals, disconnected graphs, or a fault
// plan the recovery ladder could not verify a result under).
func writeSolveError(w http.ResponseWriter, r *http.Request, err error) {
	if ctxErr := r.Context().Err(); ctxErr != nil {
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusServiceUnavailable, "request deadline exceeded")
			return
		}
		writeError(w, http.StatusRequestTimeout, ctxErr.Error())
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// writeJSON emits one deterministic JSON body: encoding/json marshals
// struct fields in declaration order and formats floats canonically, so
// identical payloads are byte-identical across processes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		// The client went away mid-write; nothing sensible to do.
		return
	}
}
