package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"distlap"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/seedderive"
	"distlap/internal/service"
	"distlap/internal/simtrace"
)

// probeSpec is the instance a traced run's layer probe measures: the
// workload's own graph, or its largest one.
type probeSpec struct {
	graph  graphSpec
	mode   distlap.Mode
	faults distlap.FaultSpec
	seed   int64
}

const (
	// prepareReps is how many Prepare calls core.prepare_ms takes the
	// median of.
	prepareReps = 21
	// commBuilds is the number of core.Instance.Comm calls per timed batch.
	commBuilds = 200
	// probeSolves is the number of right-hand sides of every request probe.
	probeSolves = 6
	// probeQueries is the number of traced MST requests.
	probeQueries = 4
	// serviceQueries is the number of requests per endpoint in the HTTP
	// probe.
	serviceQueries = 15
	// kernelBudget and kernelMaxCalls bound each kernel's timed calls.
	kernelBudget   = 150 * time.Millisecond
	kernelMaxCalls = 500
)

// prober runs the layer probe of one traced run and collects its
// per-layer values.
type prober struct {
	ctx       context.Context
	spec      probeSpec
	rec       *recorder
	g         *distlap.Graph
	inst      *distlap.Instance
	vals      map[string]float64
	attempted int
	failed    int
}

// count counts one probe operation; a non-nil err makes it a failure.
func (p *prober) count(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "distbench: probe: %v\n", err)
	}
}

func (p *prober) solver() *distlap.Solver {
	return distlap.NewSolver(distlap.WithMode(p.spec.mode), distlap.WithEps(solveEps), distlap.WithSeed(1))
}

// prepare times Prepare on the probe graph (core.prepare_ms) and keeps the
// instance for the request probes.
func (p *prober) prepare() error {
	var ms []float64
	for k := 0; k < prepareReps; k++ {
		t0 := time.Now()
		inst, err := p.solver().Prepare(p.ctx, p.g)
		ms = append(ms, toMS(time.Since(t0)))
		if err != nil {
			return err
		}
		p.inst = inst
	}
	p.vals["core.prepare_ms"] = median(ms)
	return nil
}

// commBuild times core.Instance.Comm, the per-request engine construction.
func (p *prober) commBuild() error {
	ci, err := core.PrepareInstance(p.ctx, p.g, core.PrepareConfig{Mode: p.spec.mode, Tol: solveEps, Seed: 1})
	if err != nil {
		return err
	}
	var us []float64
	for batch := 0; batch < 5; batch++ {
		t0 := time.Now()
		for k := 0; k < commBuilds; k++ {
			_ = ci.Comm(core.Request{Seed: int64(k)})
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3/commBuilds)
	}
	p.vals["core.comm_build_us"] = median(us)
	return nil
}

// solveProbe solves the same seeded requests untraced (the Nop
// collector), under the benchmark's span collector and under an InMemory
// collector, then under the probe's fault plan. It checks every solution,
// requires the traced solutions to equal the untraced ones bit for bit,
// and returns the span-collected solves for the phase split.
func (p *prober) solveProbe() ([][]span, error) {
	rng := rand.New(rand.NewSource(seedderive.Derive(p.spec.seed, "bench/probe", 0)))
	var bs [][]float64
	var seeds []int64
	for i := 0; i < probeSolves; i++ {
		bs = append(bs, randomRHS(p.g.N(), rng))
		seeds = append(seeds, rng.Int63())
	}
	plan, err := distlap.NewFaultPlan(p.spec.faults)
	if err != nil {
		return nil, err
	}
	var nop, spanned, inmem, faulty []float64
	var iters, rounds, attempts, faults, degraded, wasted, words float64
	var traced [][]span
	solve := func(i int, opts ...distlap.ReqOption) (*distlap.Result, float64, error) {
		t0 := time.Now()
		res, err := p.inst.Solve(p.ctx, bs[i], append(opts, distlap.WithRequestSeed(seeds[i]))...)
		ms := toMS(time.Since(t0))
		if err == nil {
			err = checkSolution(p.g, bs[i], res.X)
		}
		p.count(err)
		return res, ms, err
	}
	for round := 0; round < 2; round++ {
		for i := range bs {
			ref, ms, err := solve(i)
			if err != nil {
				return nil, err
			}
			nop = append(nop, ms)
			iters += float64(ref.Iterations)
			r, _ := engineCost(ref.Metrics)
			rounds += float64(r)

			tr := p.rec.begin("distlap.solve")
			res, ms, err := solve(i, distlap.WithRequestTrace(tr))
			tr.finish()
			if err != nil {
				return nil, err
			}
			spanned = append(spanned, ms)
			traced = append(traced, tr.spans)
			if floatsKey(res.X) != floatsKey(ref.X) {
				p.count(fmt.Errorf("traced solve %d differs from the untraced one", i))
			}

			if _, ms, err = solve(i, distlap.WithRequestTrace(simtrace.NewInMemory())); err != nil {
				return nil, err
			}
			inmem = append(inmem, ms)
		}
	}
	for i := range bs {
		res, ms, err := solve(i, distlap.WithRequestFaults(plan))
		if err != nil {
			return nil, err
		}
		faulty = append(faulty, ms)
		attempts += float64(res.Metrics.Attempts)
		faults += float64(res.Metrics.FaultsObserved)
		if res.Metrics.Degraded {
			degraded++
		}
		tr := p.rec.begin("distlap.solve.faulty")
		_, _, err = solve(i, distlap.WithRequestFaults(plan), distlap.WithRequestTrace(tr))
		tr.finish()
		if err != nil {
			return nil, err
		}
		for _, s := range tr.spans {
			words += float64(s.Messages)
			wasted += float64(s.Faults["fault.drops"] + s.Faults["fault.dups"])
		}
	}
	nSolves := float64(len(nop))
	p.vals["core.iterations_per_solve"] = iters / nSolves
	p.vals["core.wall_us_per_round"] = 1e3 * mean(nop) * nSolves / rounds
	p.vals["simtrace.span_overhead_pct"] = 100 * (median(spanned)/median(nop) - 1)
	p.vals["simtrace.inmemory_overhead_pct"] = 100 * (median(inmem)/median(nop) - 1)
	p.vals["faultinject.slowdown"] = median(faulty) / median(nop)
	p.vals["faultinject.events_per_solve"] = faults / float64(len(bs))
	p.vals["faultinject.wasted_msg_ratio"] = ratio(wasted, words)
	p.vals["core.attempts_per_solve"] = attempts / float64(len(bs))
	p.vals["core.degraded_rate"] = degraded / float64(len(bs))
	return traced, nil
}

// mstProbe runs traced MSTs for the mst phase split.
func (p *prober) mstProbe() ([][]span, error) {
	_, want := graph.MST(p.g)
	var traced [][]span
	for i := 0; i < probeQueries; i++ {
		tr := p.rec.begin("distlap.mst")
		res, err := p.inst.MST(p.ctx, distlap.WithRequestSeed(int64(i)), distlap.WithRequestTrace(tr))
		tr.finish()
		if err == nil {
			err = checkMST(p.g, res.Edges, res.Weight, want)
		}
		p.count(err)
		if err != nil {
			return nil, err
		}
		traced = append(traced, tr.spans)
	}
	return traced, nil
}

// kernel times calls of one kernel, each in its own root span, and
// returns the median microseconds per call and the nanoseconds per word
// the calls moved.
func (p *prober) kernel(name string, call func() (words int64, err error)) (us, nsPerWord float64, err error) {
	var per []float64
	var total time.Duration
	var moved int64
	for len(per) < kernelMaxCalls && (len(per) < 5 || total < kernelBudget) {
		tr := p.rec.begin(name)
		t0 := time.Now()
		w, err := call()
		d := time.Since(t0)
		tr.finish()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(d.Nanoseconds())/1e3)
		total += d
		moved += w
	}
	return median(per), ratio(float64(total.Nanoseconds()), float64(moved)), nil
}

// kernels times the engine primitives every solver iteration is made of,
// on the probe graph and its own cluster trees, with the Nop collector.
func (p *prober) kernels() error {
	uci, err := core.PrepareInstance(p.ctx, p.g, core.PrepareConfig{Mode: core.ModeUniversal, Tol: solveEps, Seed: 1})
	if err != nil {
		return err
	}
	c, ok := uci.Comm(core.Request{Seed: 1}).(*core.CongestComm)
	if !ok {
		return fmt.Errorf("universal instance built no CONGEST comm")
	}
	pre, ok := core.DefaultPrecond(p.g, 1).(*core.SchwarzPrecond)
	if !ok {
		return fmt.Errorf("default preconditioner is not Schwarz")
	}
	if err := pre.Setup(c); err != nil {
		return err
	}
	trees, err := c.ClusterTrees(pre.Clusters())
	if err != nil {
		return err
	}
	n := p.g.N()
	x := randomRHS(n, rand.New(rand.NewSource(p.spec.seed)))
	leaf := func(_ int, v graph.NodeID) float64 { return x[v] }
	words := func(f func() error) func() (int64, error) {
		return func() (int64, error) {
			before := c.CollectMetrics().Congest.Messages
			err := f()
			return c.CollectMetrics().Congest.Messages - before, err
		}
	}
	type kern struct {
		name string
		call func() (int64, error)
	}
	congestKernels := []kern{
		{"matvec", words(func() error { _, err := c.MatVecLaplacian(x); return err })},
		{"global_sums", words(func() error { _, err := c.GlobalSums(x, x); return err })},
		{"tree_totals", words(func() error { _, err := c.TreeTotals(trees, leaf); return err })},
		{"tree_updown", words(func() error {
			_, err := c.TreeUpDown(trees, leaf,
				func(int, float64) float64 { return 0 },
				func(_ int, _, _ graph.NodeID, parentVal, childSubtree float64) float64 {
					return parentVal + childSubtree
				})
			return err
		})},
	}
	for _, k := range congestKernels {
		us, ns, err := p.kernel("congest."+k.name, k.call)
		if err != nil {
			return err
		}
		p.vals["congest."+k.name+"_us"] = us
		p.vals["congest."+k.name+"_ns_per_msg"] = ns
	}

	hci, err := core.PrepareInstance(p.ctx, p.g, core.PrepareConfig{Mode: core.ModeHybrid, Tol: solveEps, Seed: 1})
	if err != nil {
		return err
	}
	hc, ok := hci.Comm(core.Request{Seed: 1}).(*core.HybridComm)
	if !ok {
		return fmt.Errorf("hybrid instance built no hybrid comm")
	}
	us, ns, err := p.kernel("ncc.global_sums", func() (int64, error) {
		before := hc.NCC().Messages()
		_, err := hc.GlobalSums(x, x)
		return hc.NCC().Messages() - before, err
	})
	if err != nil {
		return err
	}
	p.vals["ncc.global_sums_us"] = us
	p.vals["ncc.global_sums_ns_per_msg"] = ns

	lap := linalg.NewLaplacian(p.g)
	y := make([]float64, n)
	us, _, err = p.kernel("linalg.matvec", func() (int64, error) { return 0, lap.MatVecInto(y, x) })
	if err != nil {
		return err
	}
	p.vals["linalg.matvec_ns_per_nnz"] = 1e3 * us / float64(n+2*p.g.M())
	return nil
}

// serviceProbe loads serve-mix's first hot graph into a fresh daemon, then
// sends each endpoint's requests over HTTP and makes the same calls on a
// local instance of that graph: service.overhead_ms.<endpoint> is the
// difference of the medians. The graph is small on every workload, because
// on a large one the serving overhead is lost in the solve's own jitter. It
// returns the daemon, still running, for the counter read.
func (p *prober) serviceProbe() (*daemon, error) {
	spec := hotSet[0]
	g, err := spec.build()
	if err != nil {
		return nil, err
	}
	inst, err := distlap.NewSolver(distlap.WithEps(solveEps), distlap.WithSeed(1)).Prepare(p.ctx, g)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(0)
	if err != nil {
		return nil, err
	}
	h := &hotGraph{id: "probe", g: g}
	_, h.mstWeight = graph.MST(g)
	load := mustJSON(service.LoadRequest{
		ID: h.id, Graph: service.GraphSpec{Family: spec.family, Size: spec.size},
		Mode: string(distlap.ModeUniversal), Eps: solveEps, Seed: 1,
	})
	var loads []float64
	for k := 0; k < 5; k++ {
		lat, err := d.call(p.ctx, http.MethodPost, "/v1/graphs", load)
		p.count(err)
		if err != nil {
			return d, err
		}
		loads = append(loads, toMS(lat))
	}
	p.vals["service.load_ms"] = median(loads)

	rng := rand.New(rand.NewSource(seedderive.Derive(p.spec.seed, "bench/probe-http", 0)))
	exact := map[flowKey]float64{}
	for _, kind := range []string{"solve", "batch", "flow", "mst"} {
		var viaHTTP, direct []float64
		for i := 0; i < serviceQueries; i++ {
			op, err := query(kind, h, nil, exact, rng)
			if err != nil {
				return d, err
			}
			tr := p.rec.begin("http." + kind)
			status, resp, lat, err := d.send(p.ctx, op.method, op.path, op.body)
			tr.finish()
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("%s: status %d: %s", op.path, status, resp)
			}
			if err == nil {
				err = checkAnswer(&op, resp)
			}
			p.count(err)
			if err != nil {
				return d, err
			}
			viaHTTP = append(viaHTTP, toMS(lat))

			tr = p.rec.begin("distlap." + kind)
			lat, err = directCall(p.ctx, inst, &op)
			tr.finish()
			p.count(err)
			if err != nil {
				return d, err
			}
			direct = append(direct, toMS(lat))
		}
		p.vals["service.overhead_ms."+kind] = median(viaHTTP) - median(direct)
	}
	return d, nil
}

// directCall makes on inst the call the daemon makes for op.
func directCall(ctx context.Context, inst *distlap.Instance, op *httpOp) (time.Duration, error) {
	opt := distlap.WithRequestSeed(op.seed)
	var err error
	t0 := time.Now()
	switch op.kind {
	case "solve", "batch":
		_, err = inst.SolveBatch(ctx, op.bs, opt)
	case "flow":
		_, err = inst.Flow(ctx, op.s, op.t, opt)
	case "mst":
		_, err = inst.MST(ctx, opt)
	}
	return time.Since(t0), err
}
