package core

import (
	"fmt"
	"math"

	"distlap/internal/linalg"
)

// Options configure a distributed solve.
type Options struct {
	// Tol is the target relative 2-norm residual ‖b − Lx‖/‖b‖; the
	// iteration count scales as log(1/Tol), the paper's log(1/ε) factor.
	Tol float64
	// MaxIter caps PCG iterations (0 selects a safe default).
	MaxIter int
	// Cancel, when non-nil, is polled at every iteration boundary; a
	// non-nil return aborts the solve with that error. Engine-internal
	// round barriers are additionally covered by the comm's own Cancel
	// hook (congest.Options.Cancel), so a cancelled request stops within
	// one scheduled round, not one PCG iteration.
	Cancel func() error
	// Verify, when non-nil, computes the true relative residual of a
	// candidate solution with local, zero-communication arithmetic. The
	// solver calls it whenever its distributed reductions claim
	// convergence: if the verified residual still exceeds Tol, the claim
	// was corrupted (fault-injected runs can corrupt the reduction tree)
	// and iteration continues instead of returning a silently wrong
	// vector. Reliable runs leave it nil — the distributed residual is
	// exact there, and charging zero rounds for a global check would
	// falsify the cost model.
	Verify func(x []float64) float64
}

// Result reports a distributed solve.
type Result struct {
	X           []float64
	Iterations  int
	Residual    float64 // achieved relative residual
	Rounds      int     // total communication rounds measured on the comm
	SetupRounds int     // rounds consumed before the first iteration
	// Metrics is the structured communication cost of the run: per-engine
	// totals plus the per-phase breakdown when the comm was traced with a
	// queryable collector. Rounds == Metrics.TotalRounds(); prefer Metrics
	// over the bare counters above.
	Metrics Metrics
}

// Iterate runs the distributed preconditioned conjugate-gradient Laplacian
// solver over the given communication substrate. pre (nil = identity) must
// already be set up against a comm over the same graph — by PrepareInstance,
// or by a caller that picks its own preconditioner — and its Apply must be
// read-only, as every shipped preconditioner's is after Setup. Iterate
// charges and traces iteration cost only. The right-hand side must
// (approximately) sum to zero; the returned solution is mean-centered.
//
// Every numerical reduction goes through comm.GlobalSums, every
// matrix-vector product through comm.MatVecLaplacian, and preconditioner
// applications through tree sweeps — so Result.Rounds is the measured
// CONGEST/HYBRID round complexity of the iteration (Theorem 28's
// #iterations × Q(p) structure, with Q measured rather than assumed).
func Iterate(c Comm, b []float64, pre Preconditioner, opts Options) (*Result, error) {
	g := c.Graph()
	n := g.N()
	if len(b) != n {
		return nil, fmt.Errorf("core: b has %d entries for n=%d", len(b), n)
	}
	if opts.Tol <= 0 || opts.Tol >= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadTol, opts.Tol)
	}
	if pre == nil {
		pre = &IdentityPrecond{}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 40*n + 200
	}
	tr := c.Tracer()
	tr.Begin("solve")
	defer tr.End("solve")

	rhs, done, err := centerRHS(c, b)
	if err != nil || done != nil {
		return done, err
	}
	bc, bNorm, x, setupRounds := rhs.b, rhs.norm, rhs.x, rhs.setupRounds

	r := linalg.Copy(bc)
	tr.Begin("precond")
	z, err := pre.Apply(c, r)
	tr.End("precond")
	if err != nil {
		return nil, err
	}
	p := linalg.Copy(z)
	// Iteration scratch, allocated once per solve and reused every
	// iteration: the dot-product operand and the batched-reduction pair.
	// The norm's scratch is dead after centerRHS, so it doubles as prod.
	prod := rhs.scratch
	rr := make([]float64, n)
	rzv := make([]float64, n)
	tr.Begin("reduce")
	rz, err := dotVia(c, prod, r, z)
	tr.End("reduce")
	if err != nil {
		return nil, err
	}
	for it := 1; it <= maxIter; it++ {
		if opts.Cancel != nil {
			if err := opts.Cancel(); err != nil {
				return nil, err
			}
		}
		tr.Begin("matvec")
		lp, err := c.MatVecLaplacian(p)
		tr.End("matvec")
		if err != nil {
			return nil, err
		}
		tr.Begin("reduce")
		plp, err := dotVia(c, prod, p, lp)
		tr.End("reduce")
		if err != nil {
			return nil, err
		}
		if plp <= 0 || math.IsNaN(plp) {
			return nil, fmt.Errorf("%w: curvature %g at iteration %d",
				linalg.ErrNoConverge, plp, it)
		}
		alpha := rz / plp
		linalg.AXPY(alpha, p, x)
		linalg.AXPY(-alpha, lp, r)

		tr.Begin("precond")
		z, err = pre.Apply(c, r)
		tr.End("precond")
		if err != nil {
			return nil, err
		}
		// Batch the two reductions of the tail of the iteration into one
		// pipelined aggregation.
		for i := range r {
			rr[i] = r[i] * r[i]
			rzv[i] = r[i] * z[i]
		}
		tr.Begin("reduce")
		pair, err := c.GlobalSums(rr, rzv)
		tr.End("reduce")
		if err != nil {
			return nil, err
		}
		res := math.Sqrt(pair[0]) / bNorm
		tr.Gauge("pcg.residual", it, res, c.Rounds())
		if res <= opts.Tol {
			xc := linalg.Copy(x)
			linalg.CenterMean(xc)
			if opts.Verify != nil {
				if vres := opts.Verify(xc); vres > opts.Tol {
					// The distributed reduction claims convergence but the
					// locally verified residual disagrees: a fault corrupted
					// the aggregation. Reject the claim and keep iterating —
					// never return a silently wrong vector.
					tr.Counter("pcg.verify-rejects", 1)
					tr.Gauge("pcg.verified", it, vres, c.Rounds())
				} else {
					tr.Gauge("pcg.verified", it, vres, c.Rounds())
					return &Result{
						X: xc, Iterations: it, Residual: vres,
						Rounds: c.Rounds(), SetupRounds: setupRounds,
						Metrics: c.CollectMetrics(),
					}, nil
				}
			} else {
				return &Result{
					X: xc, Iterations: it, Residual: res,
					Rounds: c.Rounds(), SetupRounds: setupRounds,
					Metrics: c.CollectMetrics(),
				}, nil
			}
		}
		rzNew := pair[1]
		if rzNew <= 0 || math.IsNaN(rzNew) {
			return nil, fmt.Errorf("%w: rz=%g at iteration %d (preconditioner not SPD?)",
				linalg.ErrNoConverge, rzNew, it)
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, fmt.Errorf("%w after %d iterations", linalg.ErrNoConverge, maxIter)
}

// centered is a right-hand side centered to mean zero, with the state
// both iterations start from.
type centered struct {
	b           []float64 // b minus its mean
	scratch     []float64 // n floats, free for the caller once the norm is taken
	norm        float64   // ‖b‖₂ after centering
	x           []float64 // the zero start
	setupRounds int       // rounds charged before the first iteration
}

// centerRHS opens every solve inside a "norms" span: one global sum
// centers b (n is common knowledge, so the subtraction is local), and a
// second takes the centered norm. When b centers to zero, whose exact
// solution is x == 0, it also returns the finished result.
func centerRHS(c Comm, b []float64) (centered, *Result, error) {
	n := len(b)
	tr := c.Tracer()
	tr.Begin("norms")
	sums, err := c.GlobalSums(b)
	if err != nil {
		tr.End("norms")
		return centered{}, nil, err
	}
	bc := linalg.Copy(b)
	mean := sums[0] / float64(n)
	for i := range bc {
		bc[i] -= mean
	}
	bsq := make([]float64, n)
	for i := range bc {
		bsq[i] = bc[i] * bc[i]
	}
	sums, err = c.GlobalSums(bsq)
	tr.End("norms")
	if err != nil {
		return centered{}, nil, err
	}
	rhs := centered{b: bc, scratch: bsq, norm: math.Sqrt(sums[0]),
		x: make([]float64, n), setupRounds: c.Rounds()}
	if rhs.norm == 0 { //distlint:allow floateq exact-zero guard: b == 0 has the exact solution x == 0
		return rhs, &Result{X: rhs.x, Rounds: c.Rounds(), SetupRounds: rhs.setupRounds,
			Metrics: c.CollectMetrics()}, nil
	}
	return rhs, nil, nil
}

// dotVia computes a global inner product through the comm, building the
// elementwise product in the caller's scratch buffer (no allocation).
func dotVia(c Comm, prod, a, b []float64) (float64, error) {
	linalg.MulInto(prod, a, b)
	sums, err := c.GlobalSums(prod)
	if err != nil {
		return 0, err
	}
	return sums[0], nil
}

// Mode selects a standard solver configuration for experiments and CLIs.
type Mode string

// Standard modes.
const (
	// ModeUniversal: Supported-CONGEST with per-cluster trees + shortcut-
	// style aggregation (Theorem 2, first bullet).
	ModeUniversal Mode = "universal"
	// ModeCongest: standard CONGEST (pays BFS/shortcut construction).
	ModeCongest Mode = "congest"
	// ModeBaseline: the existential baseline — everything over one global
	// BFS tree (the [18]-style √n + D shape).
	ModeBaseline Mode = "baseline"
	// ModeHybrid: CONGEST + NCC (Theorem 3).
	ModeHybrid Mode = "hybrid"
)
