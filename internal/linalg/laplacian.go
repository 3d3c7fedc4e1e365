package linalg

import (
	"fmt"
	"math"

	"distlap/internal/graph"
	"distlap/internal/seedderive"
)

// Laplacian is the operator view of a weighted graph's Laplacian
// L = D − A. It never materializes the matrix: every kernel streams over
// the graph's own edge list in EdgeID order, so the float64 summation
// order is a function of the graph alone and the steady-state kernels
// allocate nothing beyond their output vector.
type Laplacian struct {
	G *graph.Graph
}

// NewLaplacian wraps g. O(1): the operator reads g's edge list directly.
func NewLaplacian(g *graph.Graph) *Laplacian {
	return &Laplacian{G: g}
}

// N returns the dimension.
func (l *Laplacian) N() int { return l.G.N() }

// MatVec computes y = L x into a fresh vector. Θ(n + m), edge order.
func (l *Laplacian) MatVec(x []float64) ([]float64, error) {
	y := make([]float64, len(x))
	if err := l.MatVecInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MatVecInto computes y = L x into the caller's buffer (zeroed here), the
// allocation-free kernel iterative loops use. y must have length n; it is
// accumulated in EdgeID order, so the float64 result is bit-identical to
// MatVec's. Θ(n + m).
func (l *Laplacian) MatVecInto(y, x []float64) error {
	if len(x) != l.G.N() {
		return fmt.Errorf("%w: x has %d entries for n=%d", ErrDimension, len(x), l.G.N())
	}
	if len(y) != len(x) {
		return fmt.Errorf("%w: y has %d entries for n=%d", ErrDimension, len(y), len(x))
	}
	for i := range y {
		y[i] = 0
	}
	for _, e := range l.G.EdgeList() {
		d := float64(e.Weight) * (x[e.U] - x[e.V])
		y[e.U] += d
		y[e.V] -= d
	}
	return nil
}

// Quadratic returns xᵀLx = Σ_e w_e (x_u − x_v)², the Laplacian energy.
// Edge-order summation; allocation-free.
func (l *Laplacian) Quadratic(x []float64) float64 {
	s := 0.0
	for _, e := range l.G.EdgeList() {
		d := x[e.U] - x[e.V]
		s += float64(e.Weight) * d * d
	}
	return s
}

// LNorm returns ‖x‖_L = sqrt(xᵀLx), the error norm the paper's guarantee
// uses.
func (l *Laplacian) LNorm(x []float64) float64 { return math.Sqrt(l.Quadratic(x)) }

// Degrees returns the weighted degree vector (the diagonal of L) in a
// fresh slice, accumulated in EdgeID order. Θ(n + m).
func (l *Laplacian) Degrees() []float64 {
	d := make([]float64, l.G.N())
	for _, e := range l.G.EdgeList() {
		w := float64(e.Weight)
		d[e.U] += w
		d[e.V] += w
	}
	return d
}

// Dense materializes L as a dense matrix (tests and the exact solver only).
func (l *Laplacian) Dense() [][]float64 {
	n := l.G.N()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, e := range l.G.EdgeList() {
		w := float64(e.Weight)
		m[e.U][e.U] += w
		m[e.V][e.V] += w
		m[e.U][e.V] -= w
		m[e.V][e.U] -= w
	}
	return m
}

// SolveExact solves L x = b exactly (up to floating point) by pinning the
// last node to zero and Gaussian-eliminating the reduced SPD system, then
// recentering the solution to mean zero. b must sum to ~0 (the Laplacian's
// range) and the graph must be connected.
func (l *Laplacian) SolveExact(b []float64) ([]float64, error) {
	n := l.G.N()
	if len(b) != n {
		return nil, fmt.Errorf("%w: b has %d entries for n=%d", ErrDimension, len(b), n)
	}
	if n == 0 {
		return nil, nil
	}
	if !graph.IsConnected(l.G) {
		return nil, ErrDisconnected
	}
	sum := 0.0
	scale := 0.0
	for _, v := range b {
		sum += v
		scale += math.Abs(v)
	}
	if scale > 0 && math.Abs(sum) > 1e-8*scale {
		return nil, fmt.Errorf("%w: sum=%g", ErrNotInRange, sum)
	}
	if n == 1 {
		return []float64{0}, nil
	}
	// Reduced system on nodes 0..n-2.
	a := l.Dense()
	m := n - 1
	// Augment with b.
	for i := 0; i < m; i++ {
		a[i] = append(a[i][:m:m], b[i])
	}
	a = a[:m]
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 { //distlint:allow floateq exact-zero pivot test in exact elimination
				continue
			}
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		x[i] = a[i][m] / a[i][i]
	}
	x[n-1] = 0
	CenterMean(x)
	return x, nil
}

// RelativeLError returns ‖x − xStar‖_L / ‖xStar‖_L, the paper's ε metric
// (both arguments are recentred first so the nullspace component is
// ignored).
func (l *Laplacian) RelativeLError(x, xStar []float64) float64 {
	xc, sc := Copy(x), Copy(xStar)
	CenterMean(xc)
	CenterMean(sc)
	denom := l.LNorm(sc)
	if denom == 0 { //distlint:allow floateq exact-zero guard before dividing by the pivot
		return l.LNorm(Sub(xc, sc))
	}
	return l.LNorm(Sub(xc, sc)) / denom
}

// RandomBVector returns a deterministic mean-zero right-hand side for
// experiments: b[i] alternates structured values then is centered.
func RandomBVector(n int, seed int64) []float64 {
	b := make([]float64, n)
	s := uint64(seedderive.Derive(seed, "bvector", 0))
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = float64(int64(s>>33)%1000) / 100.0
	}
	CenterMean(b)
	return b
}
