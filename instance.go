package distlap

import (
	"context"
	"fmt"

	"distlap/internal/apps"
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/partwise"
	"distlap/internal/seedderive"
)

// Instance is a prepared per-graph solver instance: the expensive, per-graph
// half of every solve — global aggregation tree, shortcut-style cluster
// covers and cluster trees, preconditioner state, spectral bounds — built
// exactly once by Solver.Prepare and shared by every request. Its methods
// run only the cheap per-request iteration against the cached state, which
// is the amortization the paper's serving story rests on: one Prepare, then
// many Solve/Flow/MST calls each paying iteration cost alone.
//
// A prepared Instance is immutable and safe for concurrent use: concurrent
// requests share only read-only state; each request runs on its own
// freshly-seeded private engine, and trace collectors are per-request
// single-writer (attach one per call via WithRequestTrace — never share a
// collector across in-flight requests).
//
// Request determinism: each request's engine seed is derived from the
// instance seed and the request's identity via internal/seedderive, so
// identical requests against instances prepared with the same Solver
// configuration return byte-identical results — across processes, restarts
// and daemons. WithRequestSeed pins the engine seed exactly for callers
// that manage derivation themselves.
type Instance struct {
	seed  int64 // the Solver's seed, base of every derived request seed
	inner *core.Instance
}

// Prepare runs the full one-time instance pipeline for g under the Solver's
// configuration — communication substrate (including the charged BFS in
// ModeCongest), preconditioner cluster covers and trees, or the Chebyshev
// spectral bounds — and returns the reusable Instance. The Solver's trace
// collector (if any) observes setup under a "prepare" phase span; request
// traces are attached per call on the Instance's methods.
//
// ctx cancels preparation between engine rounds. The Solver itself is not
// captured: changing the Solver afterwards does not affect the Instance.
func (sv *Solver) Prepare(ctx context.Context, g *Graph) (*Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	inner, err := core.PrepareInstance(ctx, g, sv.cfg)
	if err != nil {
		return nil, err
	}
	return &Instance{seed: sv.cfg.Seed, inner: inner}, nil
}

// ReqOption configures one request against a prepared Instance.
type ReqOption func(*reqCfg)

// reqCfg is a request as core runs it, plus whether its seed was pinned.
type reqCfg struct {
	core.Request
	hasSeed bool
}

// WithRequestTrace attaches a trace collector to this request only.
// Collectors are single-writer: use a distinct collector per in-flight
// request (the Instance never shares one across requests).
func WithRequestTrace(c Collector) ReqOption {
	return func(rc *reqCfg) { rc.Trace = c }
}

// WithRequestEps overrides the solve tolerance for this request only. 0
// keeps the instance's tolerance; any other value outside (0, 1) fails the
// request with an error.
func WithRequestEps(eps float64) ReqOption {
	return func(rc *reqCfg) { rc.Tol = eps }
}

// WithRequestSeed pins this request's engine seed exactly, replacing the
// default derivation (seedderive over the instance seed and the request
// identity). Callers pinning seeds are responsible for deriving unrelated
// streams for unrelated requests — reach for internal/seedderive's scheme,
// not ad-hoc arithmetic.
func WithRequestSeed(seed int64) ReqOption {
	return func(rc *reqCfg) { rc.Seed = seed; rc.hasSeed = true }
}

// request resolves one request: explicit options over the derived seed,
// cancelled by ctx. phase/idx identify the request for seed derivation.
func (in *Instance) request(ctx context.Context, phase string, idx int64, opts []ReqOption) core.Request {
	var rc reqCfg
	for _, o := range opts {
		o(&rc)
	}
	if !rc.hasSeed {
		rc.Seed = seedderive.Derive(in.seed, phase, idx)
	}
	rc.Cancel = ctx.Err
	return rc.Request
}

// SetupMetrics reports the communication cost Prepare paid (zero rounds in
// the Supported modes, the charged BFS in ModeCongest) — the amortized
// numerator of the serving story.
func (in *Instance) SetupMetrics() Metrics { return in.inner.SetupMetrics() }

// SizeBytes estimates the resident size of the cached instance state for
// cache budgeting (cmd/distlapd's byte-budget LRU).
func (in *Instance) SizeBytes() int64 { return in.inner.SizeBytes() }

// Solve solves L x = b against the cached instance state, paying only
// iteration cost: its phase trace contains no construction phase (those ran
// exactly once, under Prepare). b must sum to approximately zero; the
// solution is mean-centered. ctx cancels between engine rounds.
func (in *Instance) Solve(ctx context.Context, b []float64, opts ...ReqOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return in.inner.Solve(b, in.request(ctx, "instance/solve", 0, opts))
}

// SolveBatch solves L x_i = b_i for every right-hand side against the one
// cached preconditioner, charging setup cost zero times — the multi-RHS
// amortization a daemon batches requests for. Right-hand side i uses the
// request seed derived at index i (so SolveBatch(bs)[0] matches Solve(bs[0])
// exactly); WithRequestSeed pins one seed for all of them. Results are
// returned in input order; the first error aborts the batch.
func (in *Instance) SolveBatch(ctx context.Context, bs [][]float64, opts ...ReqOption) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]*Result, len(bs))
	for i, b := range bs {
		res, err := in.inner.Solve(b, in.request(ctx, "instance/solve", int64(i), opts))
		if err != nil {
			return nil, fmt.Errorf("distlap: batch rhs %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// Flow computes the unit s-t electrical flow through one per-request solve
// against the cached instance state.
func (in *Instance) Flow(ctx context.Context, s, t int, opts ...ReqOption) (*ElectricalFlow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := in.inner.Graph()
	req := in.request(ctx, "instance/flow", int64(s)*int64(g.N())+int64(t), opts)
	return apps.Flow(g, s, t, func(b []float64) (*Result, error) { return in.inner.Solve(b, req) })
}

// MST computes an MST distributedly (Borůvka over part-wise aggregation in
// Supported-CONGEST) on a request-private network over the shared graph.
func (in *Instance) MST(ctx context.Context, opts ...ReqOption) (res *MSTResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer congest.CatchCancel(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := in.inner.Network(in.request(ctx, "instance/mst", 0, opts))
	return apps.MST(nw, new(partwise.ShortcutSolver))
}

// AggregateParts solves a p-congested part-wise aggregation instance on a
// request-private network over the shared graph (the paper's layered-graph
// reduction).
func (in *Instance) AggregateParts(ctx context.Context, inst *PartwiseInstance, spec AggSpec, opts ...ReqOption) (res *AggregateResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer congest.CatchCancel(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := in.request(ctx, "instance/aggregate", 0, opts)
	return aggregateParts(in.inner.Network(req), req.Seed, inst, spec)
}
