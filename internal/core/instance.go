package core

import (
	"context"
	"errors"
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/ncc"
	"distlap/internal/simtrace"
)

// Instance is the cached per-graph half of a solve: everything whose cost
// depends only on the graph — the global (BFS) aggregation tree, the
// preconditioner's cluster covers and cluster trees, and (for Chebyshev
// instances) the spectral bounds — built once by PrepareInstance and reused
// by every request.
//
// A prepared Instance is immutable and safe for concurrent use: requests
// share only read-only state and each request runs on its own freshly
// seeded engine with its own trace collector. The amortization contract is
// that no construction phase is ever charged (or traced) after
// PrepareInstance returns; Solve charges pure iteration cost.
type Instance struct {
	g         *graph.Graph
	mode      Mode
	seed      int64
	tol       float64
	naive     bool
	hybrid    bool
	supported bool
	tree      *graph.PartTree // the global BFS tree, member-local
	pre       Preconditioner  // nil for Chebyshev instances

	cheb   bool
	lo, hi float64 // cached spectral bounds (Chebyshev only)

	setup Metrics // communication cost paid by PrepareInstance
}

// PrepareConfig configures PrepareInstance and SolveOnce.
type PrepareConfig struct {
	// Mode selects the communication model (default ModeUniversal).
	Mode Mode
	// Tol is the default request tolerance (0 selects 1e-8; any other
	// value outside (0, 1) is ErrBadTol); individual requests may override
	// it.
	Tol float64
	// Seed drives every randomized setup phase (cluster covers) and is the
	// base from which callers derive per-request seeds.
	Seed int64
	// Trace receives the setup's instrumentation (nil = Nop): the
	// "prepare" span encloses comm-setup — including the charged BFS in
	// ModeCongest — and precond-setup with its cluster-tree construction,
	// or spectral-bounds for a Chebyshev instance.
	Trace simtrace.Collector
	// Chebyshev prepares for Chebyshev iteration instead of PCG: no
	// preconditioner is built, and the spectral bounds (Lo, Hi, or the safe
	// automatic ones when zero) are computed once and cached.
	Chebyshev bool
	Lo, Hi    float64
}

// defaultTol is the tolerance a zero PrepareConfig.Tol selects.
const defaultTol = 1e-8

// ErrBadTol is returned for nonsensical tolerances.
var ErrBadTol = errors.New("core: tolerance must be in (0, 1)")

// resolveTol applies the one tolerance rule of every solve entry point: 0
// selects def, and any other value outside (0, 1) is ErrBadTol.
func resolveTol(tol, def float64) (float64, error) {
	//distlint:allow floateq zero is the "unset" sentinel; negative tolerances must still reach the ErrBadTol check below
	if tol == 0 {
		tol = def
	}
	if tol <= 0 || tol >= 1 {
		return 0, fmt.Errorf("%w: %g", ErrBadTol, tol)
	}
	return tol, nil
}

// PrepareInstance runs the one-time per-graph pipeline and returns the
// cached Instance. This is the expensive half the paper's amortization
// story rests on: low-stretch/BFS tree construction, cluster covers,
// cluster aggregation trees and preconditioner state are all paid for here,
// exactly once, so each additional right-hand side pays only iteration.
// It is the only code that sets up a Laplacian solve; a one-shot solve is
// SolveOnce. ctx cancels setup between engine rounds.
func PrepareInstance(ctx context.Context, g *graph.Graph, cfg PrepareConfig) (in *Instance, err error) {
	if g == nil || g.N() == 0 {
		return nil, errors.New("core: empty graph")
	}
	mode := cfg.Mode
	if mode == "" {
		mode = ModeUniversal
	}
	switch mode {
	case ModeUniversal, ModeCongest, ModeBaseline, ModeHybrid:
	default:
		return nil, fmt.Errorf("core: unknown mode %q", mode)
	}
	tol, err := resolveTol(cfg.Tol, defaultTol)
	if err != nil {
		return nil, err
	}
	defer congest.CatchCancel(&err)
	tr := simtrace.OrNop(cfg.Trace)
	tr.Begin("prepare")
	defer tr.End("prepare")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in = &Instance{
		g:    g,
		mode: mode,
		seed: cfg.Seed,
		tol:  tol,
		// ModeBaseline stays Supported, so its comparison against
		// ModeUniversal isolates the aggregation structure (global tree vs
		// per-cluster) rather than construction costs.
		supported: mode != ModeCongest,
		naive:     mode == ModeBaseline,
		hybrid:    mode == ModeHybrid,
		cheb:      cfg.Chebyshev,
	}
	c, err := in.setupComm(tr, cfg.Seed, ctx.Err)
	if err != nil {
		return nil, err
	}
	if cfg.Chebyshev {
		// Spectral bounds are a pure function of the graph — exactly the
		// kind of per-instance work worth caching.
		lo, hi := cfg.Lo, cfg.Hi
		if lo <= 0 || hi <= 0 {
			tr.Begin("spectral-bounds")
			lo, hi = linalg.SpectralBounds(linalg.NewLaplacian(g))
			tr.End("spectral-bounds")
		}
		if hi <= lo {
			return nil, fmt.Errorf("core: bad spectral bounds [%g, %g]", lo, hi)
		}
		in.lo, in.hi = lo, hi
	} else {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pre := DefaultPrecond(g, cfg.Seed)
		tr.Begin("precond-setup")
		serr := pre.Setup(c)
		tr.End("precond-setup")
		if serr != nil {
			return nil, fmt.Errorf("core: precond setup: %w", serr)
		}
		in.pre = pre
	}
	in.setup = c.CollectMetrics()
	return in, nil
}

// setupComm builds Prepare's own comm over the instance graph and caches its
// global tree for every request. The tree's cost — the charged BFS in
// ModeCongest, nothing in the Supported modes — is paid under
// "comm-setup".
func (in *Instance) setupComm(tr simtrace.Collector, seed int64, cancel func() error) (Comm, error) {
	tr.Begin("comm-setup")
	defer tr.End("comm-setup")
	nw := congest.NewNetwork(in.g, congest.Options{
		Supported: in.supported,
		Seed:      seed,
		Trace:     tr,
		Cancel:    cancel,
	})
	local, err := NewCongestComm(nw, in.naive)
	if err != nil {
		return nil, err
	}
	in.tree = local.globalTree
	return in.withNCC(local, nil), nil
}

// withNCC completes a comm for the instance's mode: in ModeHybrid it adds
// the NCC engine, which shares the CONGEST network's trace collector so a
// single trace covers both engines' charges.
func (in *Instance) withNCC(local *CongestComm, faults *faultinject.Plan) Comm {
	if !in.hybrid {
		return local
	}
	return &HybridComm{CongestComm: local, global: ncc.NewNetwork(in.g.N(), local.nw.Trace(), faults)}
}

// SolveOnce is a one-shot solve: PrepareInstance followed by one request
// whose engine seed is pinned to cfg.Seed. Prepare draws no scheduling
// randomness, so the request engine replays exactly the execution one
// engine running setup and iteration back to back would. When Prepare
// charged rounds (the BFS of ModeCongest), they are folded into the result:
// Rounds, SetupRounds and Metrics cover setup plus iteration, and
// Metrics.Congest.MaxEdgeLoad is the larger of the two engines' maxima.
func SolveOnce(g *graph.Graph, b []float64, cfg PrepareConfig) (*Result, error) {
	in, err := PrepareInstance(context.Background(), g, cfg)
	if err != nil {
		return nil, err
	}
	res, err := in.Solve(b, Request{Seed: cfg.Seed, Trace: cfg.Trace})
	if err != nil {
		return nil, err
	}
	if setup := in.SetupMetrics(); setup.TotalRounds() > 0 {
		addEngineMetrics(&res.Metrics, setup)
		res.Rounds += setup.TotalRounds()
		res.SetupRounds += setup.TotalRounds()
	}
	return res, nil
}

// Request configures one per-request execution against a prepared Instance.
type Request struct {
	// Tol overrides the instance's default tolerance; 0 keeps the default,
	// and any other value outside (0, 1) is ErrBadTol.
	Tol float64
	// Seed seeds the request's private engine (scheduling randomness).
	// Callers derive it from the instance seed and a request identity via
	// internal/seedderive so identical requests replay identically and
	// distinct requests get unrelated streams.
	Seed int64
	// Trace receives this request's instrumentation only (nil = Nop).
	// Collectors are single-writer: one per request, never shared.
	Trace simtrace.Collector
	// Cancel is polled at engine round barriers and iteration boundaries
	// (thread context.Context.Err here); nil disables cancellation.
	Cancel func() error
	// MaxIter caps iterations (0 selects the solver default).
	MaxIter int
	// Faults attaches a deterministic fault plan to the request's engines
	// (nil = reliable execution, the fast path). When set, Solve runs the
	// self-checking recovery loop of DESIGN.md §9: every attempt's
	// convergence is verified against a local true-residual computation,
	// failed attempts are retried under re-derived seeds (seedderive phase
	// "retry"), and exhausted retries degrade to a coarser tolerance and
	// then the baseline-fallback solver — surfaced in Metrics.Attempts /
	// FaultsObserved / Degraded. Setup (PrepareInstance) is always
	// fault-free: the fault model covers serving, not construction.
	Faults *faultinject.Plan
}

// Graph returns the instance's graph (shared, read-only).
func (in *Instance) Graph() *graph.Graph { return in.g }

// SetupMetrics returns the communication cost PrepareInstance paid (the
// charged BFS in ModeCongest; zero rounds in the Supported modes).
func (in *Instance) SetupMetrics() Metrics { return in.setup }

// Comm builds this request's private communication substrate: a freshly
// seeded engine over the shared graph with the cached global tree injected,
// so construction charges nothing. Each request must use its own comm —
// engines are single-goroutine objects; the instance state they share is
// read-only.
func (in *Instance) Comm(req Request) Comm {
	nw := congest.NewNetwork(in.g, congest.Options{
		Supported: in.supported,
		Seed:      req.Seed,
		Trace:     simtrace.OrNop(req.Trace),
		Cancel:    req.Cancel,
		Faults:    req.Faults,
	})
	return in.withNCC(newCongestCommWithTree(nw, in.naive, in.tree), req.Faults)
}

// Network builds a request-private supported CONGEST network over the
// instance's graph (for the non-solve applications: MST, part-wise
// aggregation). Same isolation contract as Comm.
func (in *Instance) Network(req Request) *congest.Network {
	return congest.NewNetwork(in.g, congest.Options{
		Supported: true,
		Seed:      req.Seed,
		Trace:     simtrace.OrNop(req.Trace),
		Cancel:    req.Cancel,
		Faults:    req.Faults,
	})
}

// Solve runs the per-request iteration half of a Laplacian solve against
// the cached instance state: PCG with the prepared preconditioner, or
// Chebyshev iteration with the cached spectral bounds. The trace it emits
// contains iteration phases only — setup appeared exactly once, under
// PrepareInstance's "prepare" span.
func (in *Instance) Solve(b []float64, req Request) (res *Result, err error) {
	defer congest.CatchCancel(&err)
	if req.Cancel != nil {
		if err := req.Cancel(); err != nil {
			return nil, err
		}
	}
	tol, err := resolveTol(req.Tol, in.tol)
	if err != nil {
		return nil, err
	}
	if req.Faults != nil {
		// Faulty execution runs the self-checking recovery loop
		// (recover.go): verified attempts, bounded retries, degradation.
		return in.solveRecovering(b, req, tol)
	}
	return in.iterate(in.Comm(req), b, req, tol, false, nil)
}

// iterate runs the instance's iteration on c: Chebyshev with the cached
// spectral bounds, or PCG with the prepared preconditioner (the identity
// when baseline is set) and the given verifier.
func (in *Instance) iterate(c Comm, b []float64, req Request, tol float64,
	baseline bool, verify func(x []float64) float64,
) (*Result, error) {
	if in.cheb {
		return SolveChebyshev(c, b, ChebyshevOptions{
			Tol: tol, Lo: in.lo, Hi: in.hi, MaxIter: req.MaxIter, Cancel: req.Cancel,
		})
	}
	pre := in.pre
	if baseline {
		pre = &IdentityPrecond{}
	}
	return Iterate(c, b, pre, Options{
		Tol: tol, MaxIter: req.MaxIter, Cancel: req.Cancel, Verify: verify,
	})
}

// SizeBytes estimates the resident size of the cached instance state for
// cache budgeting (cmd/distlapd's LRU): the graph, the member-local global
// tree, and the Schwarz preconditioner's clusters, compiled cluster tree
// set, p·n cover index and Jacobi term. Every part is O(n + m + Σ
// members). It is a deterministic structural estimate, not a measured
// allocation; TestInstanceSizeBytesTracksRetainedHeap holds it to the
// retained heap within a stated band.
func (in *Instance) SizeBytes() int64 {
	const (
		ptrSize   = 8
		edgeSize  = 3 * 8 // U, V, Weight
		halfSize  = 2 * 8 // To, Edge
		sliceHdr  = 3 * 8
		structPad = 64
	)
	n := int64(in.g.N())
	m := int64(in.g.M())
	bytes := int64(structPad)
	bytes += m*edgeSize + 2*m*halfSize + n*sliceHdr // edges + adjacency
	bytes += int64(len(in.tree.Members)) * (ptrSize + 3*4)
	if sp, ok := in.pre.(*SchwarzPrecond); ok {
		for _, cl := range sp.clusters {
			bytes += sliceHdr + int64(len(cl))*ptrSize
		}
		bytes += sp.trees.SizeBytes()
		bytes += 4*int64(len(sp.slot)) + 16*int64(len(sp.span)) // cover index + per-cluster spans
		bytes += n * 8                                          // invDeg
	}
	return bytes
}
