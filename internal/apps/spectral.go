package apps

import (
	"errors"
	"fmt"
	"math"

	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// SpectralPartitioner approximates the Fiedler vector (the eigenvector of
// the second-smallest Laplacian eigenvalue) by inverse power iteration:
// every iteration is one distributed Laplacian solve, x ← normalize(L⁺ x),
// restricted to the mean-zero subspace. The sign cut of the Fiedler vector
// is the classic spectral bipartition — another application the Laplacian
// paradigm (paper §1) exists to accelerate.
type SpectralPartitioner struct {
	Mode core.Mode
	Tol  float64 // per-solve tolerance (0 selects 1e-8)
	Seed int64
	// Iterations of inverse power iteration (default 12 — inverse
	// iteration converges geometrically in λ₂/λ₃).
	Iterations int
	// Trace receives every solve's instrumentation (nil = Nop).
	Trace simtrace.Collector
}

// SpectralResult reports the approximate Fiedler computation.
type SpectralResult struct {
	Fiedler   []float64      // unit-norm, mean-zero approximate eigenvector
	Lambda2   float64        // Rayleigh quotient of Fiedler (≈ algebraic connectivity)
	SideA     []graph.NodeID // nonnegative-sign side of the cut
	CutWeight int64          // weight of edges crossing the sign cut
	Rounds    int            // total measured rounds across all solves
	Solves    int
}

// Partition runs the iteration and returns the sign-cut bipartition.
func (sp *SpectralPartitioner) Partition(g *graph.Graph) (*SpectralResult, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("apps: spectral partition needs >= 2 nodes")
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("apps: %w", ErrDisconnected)
	}
	iters := sp.Iterations
	if iters <= 0 {
		iters = 12
	}
	// Deterministic mean-zero start with components along all eigvectors.
	x := linalg.RandomBVector(n, seedderive.Derive(sp.Seed, "spectral-start", 0))
	if linalg.Norm2(x) == 0 { //distlint:allow floateq exact-zero guard before normalizing a possibly all-zero start vector
		x[0] = 1
		linalg.CenterMean(x)
	}
	res := &SpectralResult{}
	l := linalg.NewLaplacian(g)
	for it := 0; it < iters; it++ {
		sol, err := core.SolveOnce(g, x, core.PrepareConfig{
			Mode: sp.Mode, Tol: sp.Tol, Seed: seedderive.Derive(sp.Seed, "inverse-iter", int64(it)), Trace: sp.Trace,
		})
		if err != nil {
			return nil, fmt.Errorf("apps: inverse iteration %d: %w", it, err)
		}
		res.Rounds += sol.Rounds
		res.Solves++
		x = sol.X
		linalg.CenterMean(x)
		nrm := linalg.Norm2(x)
		if nrm == 0 { //distlint:allow floateq exact-zero guard before dividing by the norm
			return nil, errors.New("apps: inverse iteration collapsed")
		}
		linalg.Scale(1/nrm, x)
		// Telemetry: per-iteration Rayleigh quotient (converging to λ₂)
		// against the solver rounds spent so far.
		simtrace.OrNop(sp.Trace).Gauge("spectral.rayleigh", it, l.Quadratic(x), res.Rounds)
	}
	res.Fiedler = x
	res.Lambda2 = l.Quadratic(x) // x is unit norm
	for v := 0; v < n; v++ {
		if x[v] >= 0 {
			res.SideA = append(res.SideA, v)
		}
	}
	res.CutWeight = CutValue(g, res.SideA)
	return res, nil
}

// Lambda2Exact computes the algebraic connectivity by dense eigensolving
// (Jacobi rotations on the projected Laplacian) — the tests' ground truth.
// Suitable for small n only.
//
//distlint:allow testonly dense-eigensolver ground truth the distributed spectral partitioner's lambda2 is tested against
func Lambda2Exact(g *graph.Graph) (float64, error) {
	n := g.N()
	if n < 2 {
		return 0, errors.New("apps: need >= 2 nodes")
	}
	a := linalg.NewLaplacian(g).Dense()
	// Jacobi eigenvalue iteration.
	for sweep := 0; sweep < 200; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-20 {
			break
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(a[i][j]) < 1e-14 {
					continue
				}
				theta := 0.5 * math.Atan2(2*a[i][j], a[j][j]-a[i][i])
				c, s := math.Cos(theta), math.Sin(theta)
				for k := 0; k < n; k++ {
					aik, ajk := a[i][k], a[j][k]
					a[i][k] = c*aik - s*ajk
					a[j][k] = s*aik + c*ajk
				}
				for k := 0; k < n; k++ {
					aki, akj := a[k][i], a[k][j]
					a[k][i] = c*aki - s*akj
					a[k][j] = s*aki + c*akj
				}
			}
		}
	}
	eigs := make([]float64, n)
	for i := 0; i < n; i++ {
		eigs[i] = a[i][i]
	}
	// Second smallest.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && eigs[j] < eigs[j-1]; j-- {
			eigs[j], eigs[j-1] = eigs[j-1], eigs[j]
		}
	}
	return eigs[1], nil
}
