package core

import (
	"fmt"
	"math"

	"distlap/internal/linalg"
)

// ChebyshevOptions configure SolveChebyshev.
type ChebyshevOptions struct {
	// Tol is the target relative residual.
	Tol float64
	// Lo, Hi bound the nonzero Laplacian spectrum and are required
	// (0 < Lo < Hi). PrepareInstance is where automatic bounds come from:
	// a Chebyshev instance caches linalg.SpectralBounds' safe defaults.
	Lo, Hi float64
	// CheckEvery controls how often the (communication-bearing) residual
	// check runs; 0 selects 8.
	CheckEvery int
	// MaxIter caps iterations (0 selects the √κ·log(1/Tol) budget).
	MaxIter int
	// Cancel, when non-nil, is polled at every iteration boundary; a
	// non-nil return aborts the solve with that error (see Options.Cancel).
	Cancel func() error
}

// SolveChebyshev runs distributed Chebyshev iteration over the comm. Its
// communication profile differs from PCG's: one MatVec exchange per
// iteration and *no* per-iteration global reductions — only a residual
// check every CheckEvery iterations — so on high-diameter topologies it
// trades more iterations (from the loose spectral bounds) for far fewer
// global aggregations. The iteration budget is the textbook
// √(Hi/Lo)·ln(2/Tol), making the log(1/ε) factor of Theorem 28 explicit in
// the code.
func SolveChebyshev(c Comm, b []float64, opts ChebyshevOptions) (*Result, error) {
	g := c.Graph()
	n := g.N()
	if len(b) != n {
		return nil, fmt.Errorf("core: b has %d entries for n=%d", len(b), n)
	}
	if opts.Tol <= 0 || opts.Tol >= 1 {
		return nil, fmt.Errorf("%w: %g", ErrBadTol, opts.Tol)
	}
	lo, hi := opts.Lo, opts.Hi
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("core: bad spectral bounds [%g, %g]", lo, hi)
	}
	checkEvery := opts.CheckEvery
	if checkEvery <= 0 {
		checkEvery = 8
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = int(math.Sqrt(hi/lo)*math.Log(2/opts.Tol)) + 16
	}

	tr := c.Tracer()
	tr.Begin("chebyshev")
	defer tr.End("chebyshev")

	rhs, done, err := centerRHS(c, b)
	if err != nil || done != nil {
		return done, err
	}
	bc, bNorm, x, setupRounds := rhs.b, rhs.norm, rhs.x, rhs.setupRounds

	theta := (hi + lo) / 2
	delta := (hi - lo) / 2
	r := linalg.Copy(bc)
	var p []float64
	alpha := 0.0
	// Residual-check scratch, allocated once and reused: the norm's
	// scratch is dead after centerRHS.
	rsq := rhs.scratch
	for it := 1; it <= maxIter; it++ {
		if opts.Cancel != nil {
			if err := opts.Cancel(); err != nil {
				return nil, err
			}
		}
		switch it {
		case 1:
			p = linalg.Copy(r)
			alpha = 1 / theta
		case 2:
			beta := 0.5 * (delta * alpha) * (delta * alpha)
			alpha = 1 / (theta - beta/alpha)
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
		default:
			beta := (delta * alpha / 2) * (delta * alpha / 2)
			alpha = 1 / (theta - beta/alpha)
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
		}
		linalg.AXPY(alpha, p, x)
		tr.Begin("matvec")
		lx, err := c.MatVecLaplacian(x)
		tr.End("matvec")
		if err != nil {
			return nil, err
		}
		linalg.SubInto(r, bc, lx)
		if it%checkEvery != 0 && it != maxIter {
			continue
		}
		linalg.MulInto(rsq, r, r)
		tr.Begin("reduce")
		pair, err := c.GlobalSums(rsq)
		tr.End("reduce")
		if err != nil {
			return nil, err
		}
		res := math.Sqrt(pair[0]) / bNorm
		tr.Gauge("chebyshev.residual", it, res, c.Rounds())
		if res <= opts.Tol {
			linalg.CenterMean(x)
			return &Result{
				X: x, Iterations: it, Residual: res,
				Rounds: c.Rounds(), SetupRounds: setupRounds,
				Metrics: c.CollectMetrics(),
			}, nil
		}
	}
	return nil, fmt.Errorf("%w after %d Chebyshev iterations", linalg.ErrNoConverge, maxIter)
}
