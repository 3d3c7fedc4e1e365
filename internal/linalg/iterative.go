package linalg

import (
	"fmt"
	"math"
)

// Preconditioner applies M⁻¹ to a residual. Implementations must be
// symmetric positive definite on the mean-zero subspace.
type Preconditioner interface {
	Apply(r []float64) ([]float64, error)
	Name() string
}

// IdentityPreconditioner is plain CG.
type IdentityPreconditioner struct{}

var _ Preconditioner = IdentityPreconditioner{}

// Apply implements Preconditioner.
func (IdentityPreconditioner) Apply(r []float64) ([]float64, error) { return Copy(r), nil }

// Name implements Preconditioner.
func (IdentityPreconditioner) Name() string { return "identity" }

// JacobiPreconditioner scales by the inverse weighted degrees.
type JacobiPreconditioner struct {
	InvDiag []float64
}

var _ Preconditioner = (*JacobiPreconditioner)(nil)

// NewJacobi builds the Jacobi preconditioner for l.
//
//distlint:allow testonly preconditioner of the sequential PCG reference
func NewJacobi(l *Laplacian) *JacobiPreconditioner {
	d := l.Degrees()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v > 0 {
			inv[i] = 1 / v
		}
	}
	return &JacobiPreconditioner{InvDiag: inv}
}

// Apply implements Preconditioner.
func (p *JacobiPreconditioner) Apply(r []float64) ([]float64, error) {
	if len(r) != len(p.InvDiag) {
		return nil, ErrDimension
	}
	out := make([]float64, len(r))
	for i := range r {
		out[i] = r[i] * p.InvDiag[i]
	}
	return out, nil
}

// Name implements Preconditioner.
func (*JacobiPreconditioner) Name() string { return "jacobi" }

// PCGResult reports a preconditioned-CG run.
type PCGResult struct {
	X          []float64
	Iterations int
	Residual   float64 // final relative 2-norm residual
}

// PCG solves L x = b to relative residual tol with preconditioner m,
// working entirely in the mean-zero subspace. It is the sequential
// reference for the distributed solver in internal/core: the distributed
// version performs exactly these operations through communication
// primitives.
//
//distlint:allow testonly sequential reference the distributed PCG in internal/core is tested against
func PCG(l *Laplacian, b []float64, m Preconditioner, tol float64, maxIter int) (*PCGResult, error) {
	n := l.N()
	if len(b) != n {
		return nil, ErrDimension
	}
	if maxIter <= 0 {
		maxIter = 20*n + 100
	}
	bb := Copy(b)
	CenterMean(bb)
	bNorm := Norm2(bb)
	x := make([]float64, n)
	if bNorm == 0 { //distlint:allow floateq exact-zero guard: b == 0 has the exact solution x == 0
		return &PCGResult{X: x}, nil
	}
	r := Copy(bb)
	z, err := m.Apply(r)
	if err != nil {
		return nil, err
	}
	CenterMean(z)
	p := Copy(z)
	rz := Dot(r, z)
	for it := 1; it <= maxIter; it++ {
		lp, err := l.MatVec(p)
		if err != nil {
			return nil, err
		}
		plp := Dot(p, lp)
		if plp <= 0 || math.IsNaN(plp) {
			return nil, fmt.Errorf("%w: non-positive curvature %g", ErrNoConverge, plp)
		}
		alpha := rz / plp
		AXPY(alpha, p, x)
		AXPY(-alpha, lp, r)
		res := Norm2(r) / bNorm
		if res <= tol {
			CenterMean(x)
			return &PCGResult{X: x, Iterations: it, Residual: res}, nil
		}
		z, err = m.Apply(r)
		if err != nil {
			return nil, err
		}
		CenterMean(z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (residual %g)",
		ErrNoConverge, maxIter, Norm2(r)/bNorm)
}

// Chebyshev solves L x = b by Chebyshev iteration given eigenvalue bounds
// [lo, hi] on the nonzero spectrum; it is the iteration whose count scales
// as sqrt(hi/lo)·log(1/ε), the log(1/ε) shape Theorem 28 charges per call.
//
//distlint:allow testonly sequential reference the distributed Chebyshev iteration in internal/core is tested against
func Chebyshev(l *Laplacian, b []float64, lo, hi, tol float64, maxIter int) (*PCGResult, error) {
	n := l.N()
	if len(b) != n {
		return nil, ErrDimension
	}
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("linalg: bad spectral bounds [%g, %g]", lo, hi)
	}
	if maxIter <= 0 {
		maxIter = 20*n + 100
	}
	bb := Copy(b)
	CenterMean(bb)
	bNorm := Norm2(bb)
	x := make([]float64, n)
	if bNorm == 0 { //distlint:allow floateq exact-zero guard: b == 0 has the exact solution x == 0
		return &PCGResult{X: x}, nil
	}
	theta := (hi + lo) / 2
	delta := (hi - lo) / 2
	r := Copy(bb)
	var p []float64
	alpha := 0.0
	for it := 1; it <= maxIter; it++ {
		switch it {
		case 1:
			p = Copy(r)
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
		AXPY(alpha, p, x)
		lx, err := l.MatVec(x)
		if err != nil {
			return nil, err
		}
		r = Sub(bb, lx)
		if res := Norm2(r) / bNorm; res <= tol {
			CenterMean(x)
			return &PCGResult{X: x, Iterations: it, Residual: res}, nil
		}
	}
	return nil, fmt.Errorf("%w after %d Chebyshev iterations", ErrNoConverge, maxIter)
}

// SpectralBounds returns safe bounds on the nonzero Laplacian spectrum of a
// connected graph for Chebyshev iteration. hi = 2·max weighted degree
// (Gershgorin). lo rests on Mohar's bound λ₂ ≥ 4/(n·D) for a unit-weight
// graph of hop diameter D: since D ≤ n−1, 4/n² is below it, and scaling
// every weight down to the minimum w_min can only lower λ₂, so
// lo = 4·w_min/n². Callers who need tight bounds should estimate them.
func SpectralBounds(l *Laplacian) (lo, hi float64) {
	maxDeg := 0.0
	for _, v := range l.Degrees() {
		if v > maxDeg {
			maxDeg = v
		}
	}
	n := float64(l.N())
	if n < 2 {
		return 1, 1
	}
	hi = 2 * maxDeg
	minW := math.Inf(1)
	for _, e := range l.G.EdgeList() {
		if w := float64(e.Weight); w < minW {
			minW = w
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	lo = 4 * minW / (n * n)
	return lo, hi
}
