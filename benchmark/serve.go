package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"distlap"
	"distlap/internal/graph"
	"distlap/internal/seedderive"
	"distlap/internal/service"
)

// The serve-mix traffic is synthetic: no recorded distlapd traffic exists to
// derive it from. The hot set, the mix and the repeat share are the ones
// the benchmark was specified with; re-derive them from a distlapd
// -access-log of real use once one is available.

// hotSet is loaded once at set-up and queried by nearly every request:
// grid-64, path-64, expander-128, tree-127 (a complete binary tree, size 64
// rounds up to it) and grid-144, all universal mode, eps 1e-6.
var hotSet = []graphSpec{
	{"grid", 64}, {"path", 64}, {"expander", 128}, {"tree", 64}, {"grid", 144},
}

// The list is built from 100-request blocks of five 20-request segments,
// of the templates in blockTemplates order. A block holds 5 loads, 55
// solves, 10 batches, 15 flows, 12 MSTs and 3 lists. Each segment opens
// with the load of a fresh churn graph; --seed draws the order of the
// segment's other requests.
var segmentTemplates = [2][]string{
	{"load", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve",
		"batch", "batch", "flow", "flow", "flow", "mst", "mst", "mst"},
	{"load", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve",
		"batch", "batch", "flow", "flow", "flow", "mst", "mst", "list"},
}

var blockTemplates = []int{0, 0, 1, 1, 1}

const (
	segmentLen = 20
	// repeatProb is the chance that a query copies an earlier query of the
	// same kind on the same graph byte for byte (24.3 % of all requests of
	// the list).
	repeatProb = 0.28
	// churnNodes and churnExtra size the churn graphs: random connected
	// weighted graphs of about 1k nodes and 2k edges.
	churnNodes = 1000
	churnExtra = 1000
	// minBatchRHS and maxBatchRHS bound the right-hand sides of a batch.
	minBatchRHS, maxBatchRHS = 2, 4
)

// hotGraph is one hot-set instance and its output references.
type hotGraph struct {
	id        string
	g         *distlap.Graph
	mstWeight int64
}

// httpOp is one request of the list, pre-encoded, with what its answer is
// checked against.
type httpOp struct {
	kind   string
	method string
	path   string
	body   []byte
	hot    *hotGraph   // queried instance (nil for load and list)
	bs     [][]float64 // solve/batch right-hand sides
	seed   int64       // pinned request seed of a query
	s, t   int         // flow terminals
	wantR  float64     // flow: exact effective resistance
	loadID string      // load: instance id
	loadN  int         // load: node count
}

// serveMix drives an in-process distlapd with two closed-loop clients.
type serveMix struct {
	hot    []*hotGraph
	loads  [][]byte // hot-set load bodies, sent at set-up
	ops    []httpOp
	budget int64
	reps   int
}

func newServeMix(ops, reps int, seed int64) (*serveMix, error) {
	content := rand.New(rand.NewSource(seedderive.Derive(contentSeed, "bench/serve-mix", 0)))
	order := rand.New(rand.NewSource(seedderive.Derive(seed, "bench/serve-mix/order", 0)))
	w := &serveMix{reps: reps}
	ctx := context.Background()
	for _, gs := range hotSet {
		g, err := gs.build()
		if err != nil {
			return nil, err
		}
		_, weight := graph.MST(g)
		h := &hotGraph{id: fmt.Sprintf("%s-%d", gs.family, g.N()), g: g, mstWeight: weight}
		w.hot = append(w.hot, h)
		w.loads = append(w.loads, mustJSON(service.LoadRequest{
			ID: h.id, Graph: service.GraphSpec{Family: gs.family, Size: gs.size},
			Mode: string(distlap.ModeUniversal), Eps: solveEps, Seed: 1,
		}))
		size, err := instanceBytes(ctx, g)
		if err != nil {
			return nil, err
		}
		w.budget += size
	}
	var churnMax int64
	exact := map[flowKey]float64{}
	var earlier []httpOp
	// Each query kind cycles through the hot set, so every segment queries
	// every hot graph (11 solves alone cover all five).
	next := map[string]int{}
	for seg := 0; len(w.ops) < ops; seg++ {
		var segment []httpOp
		for _, kind := range segmentTemplates[blockTemplates[seg%len(blockTemplates)]] {
			var op httpOp
			var err error
			switch kind {
			case "load":
				var size int64
				op, size, err = churnLoad(ctx, seg, content)
				churnMax = max(churnMax, size)
			case "list":
				op = httpOp{kind: kind, method: http.MethodGet, path: "/v1/graphs"}
			default:
				h := w.hot[next[kind]%len(w.hot)]
				next[kind]++
				op, err = query(kind, h, earlier, exact, content)
				earlier = append(earlier, op)
			}
			if err != nil {
				return nil, err
			}
			segment = append(segment, op)
		}
		q := segment[1:]
		order.Shuffle(len(q), func(a, b int) { q[a], q[b] = q[b], q[a] })
		w.ops = append(w.ops, segment[:min(len(segment), ops-len(w.ops))]...)
	}
	// Room for the hot set and two churn graphs. A churn load then evicts
	// the churn graph loaded two segments earlier, never a hot instance:
	// every hot graph was queried in the segment between. With room for one
	// churn graph, a load right after another (where a warm-up stops after
	// a load and the window starts with one) would evict a hot instance.
	w.budget += 2 * churnMax
	return w, nil
}

// flowKey identifies an s-t pair on one graph.
type flowKey struct {
	h    *hotGraph
	s, t int
}

// query builds one solve, batch, flow or MST request on h, or copies an
// earlier request of the same kind on h. exact caches effective
// resistances across calls.
func query(kind string, h *hotGraph, earlier []httpOp, exact map[flowKey]float64, rng *rand.Rand) (httpOp, error) {
	if rng.Float64() < repeatProb {
		var same []httpOp
		for _, e := range earlier {
			if e.kind == kind && e.hot == h {
				same = append(same, e)
			}
		}
		if len(same) > 0 {
			return same[rng.Intn(len(same))], nil
		}
	}
	seed := rng.Int63()
	op := httpOp{kind: kind, method: http.MethodPost, path: "/v1/graphs/" + h.id + "/" + kind, hot: h, seed: seed}
	n := h.g.N()
	switch kind {
	case "solve":
		op.bs = [][]float64{randomRHS(n, rng)}
		op.body = mustJSON(service.SolveRequest{B: op.bs[0], Seed: &seed})
	case "batch":
		for k := minBatchRHS + rng.Intn(maxBatchRHS-minBatchRHS+1); k > 0; k-- {
			op.bs = append(op.bs, randomRHS(n, rng))
		}
		op.path = "/v1/graphs/" + h.id + "/solve"
		op.body = mustJSON(service.SolveRequest{Batch: op.bs, Seed: &seed})
	case "flow":
		s := rng.Intn(n)
		t := (s + 1 + rng.Intn(n-1)) % n
		key := flowKey{h, s, t}
		if _, ok := exact[key]; !ok {
			r, err := exactResistance(h.g, s, t)
			if err != nil {
				return op, err
			}
			exact[key] = r
		}
		op.s, op.t, op.wantR = s, t, exact[key]
		op.body = mustJSON(service.FlowRequest{S: s, T: t, Seed: &seed})
	case "mst":
		op.body = mustJSON(service.MSTRequest{Seed: &seed})
	}
	return op, nil
}

// churnLoad builds the load of a fresh ~1k-node weighted graph.
func churnLoad(ctx context.Context, seg int, rng *rand.Rand) (httpOp, int64, error) {
	g := graph.RandomConnected(churnNodes, churnExtra, 16, rng.Int63())
	spec := service.GraphSpec{N: g.N()}
	for _, e := range g.EdgeList() {
		spec.Edges = append(spec.Edges, [3]int64{int64(e.U), int64(e.V), e.Weight})
	}
	id := fmt.Sprintf("churn-%d", seg)
	size, err := instanceBytes(ctx, g)
	op := httpOp{
		kind: "load", method: http.MethodPost, path: "/v1/graphs", loadID: id, loadN: g.N(),
		body: mustJSON(service.LoadRequest{ID: id, Graph: spec, Mode: string(distlap.ModeUniversal), Eps: solveEps, Seed: 1}),
	}
	return op, size, err
}

// instanceBytes is the cache size distlapd charges for g's instance.
func instanceBytes(ctx context.Context, g *distlap.Graph) (int64, error) {
	inst, err := distlap.NewSolver(distlap.WithEps(solveEps), distlap.WithSeed(1)).Prepare(ctx, g)
	if err != nil {
		return 0, err
	}
	return inst.SizeBytes(), nil
}

// exactResistance is the s-t effective resistance from distlap.ExactSolve
// potentials (dense elimination, independent of the distributed solver).
func exactResistance(g *distlap.Graph, s, t int) (float64, error) {
	b := make([]float64, g.N())
	b[s], b[t] = 1, -1
	x, err := distlap.ExactSolve(g, b)
	if err != nil {
		return 0, err
	}
	return x[s] - x[t], nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request structs are marshalled
	}
	return b
}

func (w *serveMix) size() int      { return len(w.ops) }
func (w *serveMix) clients() int   { return maxConns }
func (w *serveMix) setupReps() int { return w.reps }

// repeatShare is the share of the list's requests that repeat an earlier
// query of the list byte for byte. The list's set of requests is fixed, so
// the share does not depend on the order the seed draws.
func (w *serveMix) repeatShare() float64 {
	seen := map[string]bool{}
	n := 0
	for _, op := range w.ops {
		if op.hot == nil {
			continue
		}
		key := op.path + " " + string(op.body)
		if seen[key] {
			n++
		}
		seen[key] = true
	}
	return float64(n) / float64(len(w.ops))
}

// probe measures the first hot graph.
func (w *serveMix) probe() probeSpec {
	return probeSpec{graph: hotSet[0], mode: distlap.ModeUniversal, faults: benchFaults(contentSeed), seed: contentSeed}
}

// open starts a daemon and loads the hot set through it.
func (w *serveMix) open(ctx context.Context) (session, error) {
	d, err := startDaemon(w.budget)
	if err != nil {
		return nil, err
	}
	for _, body := range w.loads {
		if _, err := d.call(ctx, http.MethodPost, "/v1/graphs", body); err != nil {
			_ = d.stop() // the load error is the one to report
			return nil, err
		}
	}
	return &serveSession{w: w, d: d, seen: newRepeats()}, nil
}

type serveSession struct {
	w    *serveMix
	d    *daemon
	seen *repeats
}

func (s *serveSession) rootName(i int) string { return "http." + s.w.ops[i].kind }

func (s *serveSession) do(ctx context.Context, i int, _ *opTrace) (time.Duration, error) {
	op := &s.w.ops[i]
	status, resp, lat, err := s.d.send(ctx, op.method, op.path, op.body)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("status %d: %s", status, resp)
	}
	if op.hot != nil {
		if err := s.seen.check(op.path+" "+digest(op.body), digest(resp)); err != nil {
			return lat, err
		}
	}
	return lat, checkAnswer(op, resp)
}

// checkAnswer checks one response body against the request's reference.
func checkAnswer(op *httpOp, resp []byte) error {
	switch op.kind {
	case "solve", "batch":
		var r service.SolveResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if len(r.Results) != len(op.bs) {
			return fmt.Errorf("%d results for %d right-hand sides", len(r.Results), len(op.bs))
		}
		for k, res := range r.Results {
			if err := checkSolution(op.hot.g, op.bs[k], res.X); err != nil {
				return err
			}
		}
	case "flow":
		var r service.FlowResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if math.Abs(r.Resistance-op.wantR) > 1e-4*op.wantR {
			return fmt.Errorf("resistance %g, exact %g", r.Resistance, op.wantR)
		}
	case "mst":
		var r service.MSTResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		return checkMST(op.hot.g, r.Edges, r.Weight, op.hot.mstWeight)
	case "load":
		var r service.LoadResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if r.Instance.ID != op.loadID || r.Instance.Nodes != op.loadN {
			return fmt.Errorf("loaded %q with %d nodes, want %q with %d", r.Instance.ID, r.Instance.Nodes, op.loadID, op.loadN)
		}
	case "list":
		var r service.ListResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if len(r.Instances) < len(hotSet) {
			return fmt.Errorf("list shows %d instances, fewer than the hot set", len(r.Instances))
		}
	}
	return nil
}

// checkMST requires edges to form a spanning tree of g whose weight is the
// reported weight and equals graph.MST's.
func checkMST(g *distlap.Graph, edges []int, weight, want int64) error {
	if weight != want {
		return fmt.Errorf("MST weight %d, want %d", weight, want)
	}
	if len(edges) != g.N()-1 {
		return fmt.Errorf("MST has %d edges for n=%d", len(edges), g.N())
	}
	uf := graph.NewUnionFind(g.N())
	var sum int64
	for _, id := range edges {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("MST edge %d out of range", id)
		}
		e := g.Edge(id)
		if !uf.Union(e.U, e.V) {
			return fmt.Errorf("MST edge %d closes a cycle", id)
		}
		sum += e.Weight
	}
	if sum != weight {
		return fmt.Errorf("MST edges weigh %d, reported %d", sum, weight)
	}
	return nil
}

func (s *serveSession) cost() (int64, int64, error) { return s.d.engineCost(context.Background()) }
func (s *serveSession) close() error                { return s.d.stop() }
