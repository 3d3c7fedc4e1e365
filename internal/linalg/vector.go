// Package linalg provides the numerical substrate of the Laplacian solvers:
// dense vector operations, graph Laplacian operators, an exact (direct)
// solver used as ground truth, and sequential iterative solvers (CG,
// preconditioned CG, Chebyshev) that the distributed solver in
// internal/core mirrors operation by operation.
//
// Determinism obligations: all iterations and reductions run in fixed
// index order with no parallelism, so floating-point results are
// bit-reproducible; convergence tests use tolerances, never float
// equality (enforced by the floateq analyzer); RandomBVector derives its
// stream via seedderive from the caller's explicit seed.
package linalg

import (
	"errors"
	"math"
)

// Errors returned by the numerical routines.
var (
	ErrDimension    = errors.New("linalg: dimension mismatch")
	ErrNotInRange   = errors.New("linalg: right-hand side not in the Laplacian's range (sum != 0)")
	ErrSingular     = errors.New("linalg: singular system")
	ErrNoConverge   = errors.New("linalg: iteration did not converge")
	ErrDisconnected = errors.New("linalg: graph must be connected")
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of a.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy returns a fresh copy of x.
func Copy(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Sub returns a - b in a fresh vector.
func Sub(a, b []float64) []float64 {
	out := make([]float64, len(a))
	SubInto(out, a, b)
	return out
}

// SubInto computes dst = a - b into the caller's buffer (dst may alias a
// or b), the allocation-free form iterative loops use on their pooled
// scratch vectors. All three slices must share a length.
func SubInto(dst, a, b []float64) {
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// MulInto computes the elementwise product dst = a ∘ b into the caller's
// buffer (dst may alias a or b). Used to build the squared/product vectors
// global reductions consume without per-iteration allocation.
func MulInto(dst, a, b []float64) {
	for i := range a {
		dst[i] = a[i] * b[i]
	}
}

// Mean returns the arithmetic mean of x (0 for empty).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// CenterMean subtracts the mean from every entry, projecting x onto the
// space orthogonal to the all-ones vector (the Laplacian's range).
func CenterMean(x []float64) {
	m := Mean(x)
	for i := range x {
		x[i] -= m
	}
}
