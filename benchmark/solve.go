package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distlap"
	"distlap/internal/seedderive"
)

// solveEps is the tolerance every workload solves to.
const solveEps = 1e-6

// residualSlack is the factor by which a returned solution's true residual
// may exceed the requested tolerance.
const residualSlack = 10

// benchFaults is the fault mix of faulty-hybrid (and of every traced run's
// fault probe): lossy and flaky links, whose dropped words the engines
// retransmit at a charged cost. Drops never corrupt a solve, so no
// operation degrades or fails under it.
func benchFaults(seed int64) distlap.FaultSpec {
	return distlap.FaultSpec{
		Seed:          seedderive.Derive(seed, "bench/faults", 0),
		DropProb:      0.02,
		FlakyLinkProb: 0.02,
	}
}

// graphSpec names a standard graph family at a target size.
type graphSpec struct {
	family string
	size   int
}

func (gs graphSpec) build() (*distlap.Graph, error) {
	for _, f := range distlap.Families() {
		if f.Name == gs.family {
			return f.Make(gs.size), nil
		}
	}
	return nil, fmt.Errorf("unknown graph family %q", gs.family)
}

// solveLoad is a prepared-instance solve loop: one graph, a fixed set of
// right-hand sides, each solved with a pinned request seed, in an order
// drawn from the run's seed. Operation i is the same request on every pass.
type solveLoad struct {
	graph  graphSpec
	mode   distlap.Mode
	faults *distlap.FaultSpec
	bs     [][]float64
	seeds  []int64
	g      *distlap.Graph // reference copy for the output checks
	reps   int
}

func newSolveLoad(gs graphSpec, mode distlap.Mode, faults *distlap.FaultSpec, ops, reps int, seed int64) (*solveLoad, error) {
	g, err := gs.build()
	if err != nil {
		return nil, err
	}
	content := rand.New(rand.NewSource(seedderive.Derive(contentSeed, "bench/rhs", 0)))
	w := &solveLoad{graph: gs, mode: mode, faults: faults, g: g, reps: reps}
	for i := 0; i < ops; i++ {
		w.bs = append(w.bs, randomRHS(g.N(), content))
		w.seeds = append(w.seeds, content.Int63())
	}
	order := rand.New(rand.NewSource(seedderive.Derive(seed, "bench/rhs/order", 0)))
	order.Shuffle(ops, func(a, b int) {
		w.bs[a], w.bs[b] = w.bs[b], w.bs[a]
		w.seeds[a], w.seeds[b] = w.seeds[b], w.seeds[a]
	})
	return w, nil
}

// randomRHS draws a mean-zero right-hand side with standard normal entries.
func randomRHS(n int, rng *rand.Rand) []float64 {
	b := make([]float64, n)
	sum := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		sum += b[i]
	}
	for i := range b {
		b[i] -= sum / float64(n)
	}
	return b
}

func (w *solveLoad) size() int      { return len(w.bs) }
func (w *solveLoad) clients() int   { return 1 }
func (w *solveLoad) setupReps() int { return w.reps }

func (w *solveLoad) probe() probeSpec {
	return probeSpec{graph: w.graph, mode: w.mode, faults: benchFaults(contentSeed), seed: contentSeed}
}

// open builds the graph, prepares its instance and compiles the fault plan.
func (w *solveLoad) open(ctx context.Context) (session, error) {
	g, err := w.graph.build()
	if err != nil {
		return nil, err
	}
	inst, err := distlap.NewSolver(distlap.WithMode(w.mode), distlap.WithEps(solveEps),
		distlap.WithSeed(1)).Prepare(ctx, g)
	if err != nil {
		return nil, err
	}
	s := &solveSession{w: w, inst: inst, seen: newRepeats()}
	if w.faults != nil {
		if s.plan, err = distlap.NewFaultPlan(*w.faults); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type solveSession struct {
	w      *solveLoad
	inst   *distlap.Instance
	plan   *distlap.FaultPlan
	seen   *repeats
	rounds atomic.Int64
	words  atomic.Int64
}

func (s *solveSession) rootName(int) string { return "distlap.solve" }

func (s *solveSession) do(ctx context.Context, i int, tr *opTrace) (time.Duration, error) {
	opts := []distlap.ReqOption{distlap.WithRequestSeed(s.w.seeds[i])}
	if s.plan != nil {
		opts = append(opts, distlap.WithRequestFaults(s.plan))
	}
	if c := tr.collector(); c != nil {
		opts = append(opts, distlap.WithRequestTrace(c))
	}
	t0 := time.Now()
	res, err := s.inst.Solve(ctx, s.w.bs[i], opts...)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	r, m := engineCost(res.Metrics)
	s.rounds.Add(r)
	s.words.Add(m)
	if err := checkSolution(s.w.g, s.w.bs[i], res.X); err != nil {
		return lat, err
	}
	return lat, s.seen.check(strconv.Itoa(i), floatsKey(res.X))
}

func (s *solveSession) cost() (int64, int64, error) { return s.rounds.Load(), s.words.Load(), nil }
func (s *solveSession) close() error                { return nil }

// engineCost is a result's charged rounds and words across both engines.
func engineCost(m distlap.Metrics) (rounds, words int64) {
	words = m.Congest.Messages
	if m.NCC != nil {
		words += m.NCC.Messages
	}
	return int64(m.TotalRounds()), words
}

// checkSolution recomputes the true relative residual ‖b_c − Lx‖/‖b_c‖ of a
// returned solution with the benchmark's own edge loop (b_c is b minus its
// mean) and requires it within residualSlack × solveEps.
func checkSolution(g *distlap.Graph, b, x []float64) error {
	n := g.N()
	if len(x) != n {
		return fmt.Errorf("solution has %d entries for n=%d", len(x), n)
	}
	lx := make([]float64, n)
	for _, e := range g.EdgeList() {
		d := float64(e.Weight) * (x[e.U] - x[e.V])
		lx[e.U] += d
		lx[e.V] -= d
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	mean /= float64(n)
	var rr, bb float64
	for v := 0; v < n; v++ {
		bc := b[v] - mean
		rr += (bc - lx[v]) * (bc - lx[v])
		bb += bc * bc
	}
	res := math.Sqrt(rr / bb)
	if !(res <= residualSlack*solveEps) {
		return fmt.Errorf("true relative residual %.3g exceeds %g", res, residualSlack*solveEps)
	}
	return nil
}

// floatsKey digests a vector's exact bits for the repeat check.
func floatsKey(x []float64) string {
	buf := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return digest(buf)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// repeats holds the first output of every request, so a repeated identical
// request can be required to return byte-identical output.
type repeats struct {
	mu    sync.Mutex
	first map[string]string
}

func newRepeats() *repeats { return &repeats{first: map[string]string{}} }

func (r *repeats) check(request, output string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.first[request]
	if !ok {
		r.first[request] = output
		return nil
	}
	if prev != output {
		return fmt.Errorf("repeated request %q returned different output", request)
	}
	return nil
}
