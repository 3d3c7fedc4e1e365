package core

import (
	"errors"
	"fmt"
	"math"

	"distlap/internal/graph"
	"distlap/internal/linalg"
)

// SolveSDD solves the symmetric diagonally-dominant system
//
//	(L_g + diag(extra)) x = b
//
// by the standard grounded-Laplacian reduction: augment g with a ground
// node z joined to every node v with extra[v] > 0 by an edge of weight
// extra[v]; then L' restricted to the original nodes with x_z pinned to 0
// is exactly L + diag(extra). The augmented Laplacian system is solved
// distributedly in the requested mode (the ground node is simulated by the
// network like any other node; it adds 1 to n and extra edges, preserving
// the round-complexity shape), and the solution is shifted so the ground
// reads zero.
//
// extra must be nonnegative with at least one positive entry (otherwise
// the system is a plain Laplacian — use SolveOnce). Unlike Laplacian
// systems, b may have any sum. The augmented system is a SolveOnce under
// cfg, always by PCG: cfg's Chebyshev fields are ignored, because explicit
// bounds for L_g say nothing about the grounded Laplacian's spectrum.
func SolveSDD(g *graph.Graph, extra []int64, b []float64, cfg PrepareConfig) (*Result, error) {
	n := g.N()
	if len(extra) != n || len(b) != n {
		return nil, fmt.Errorf("core: extra/b have %d/%d entries for n=%d", len(extra), len(b), n)
	}
	anyPositive := false
	for v, d := range extra {
		if d < 0 {
			return nil, fmt.Errorf("core: extra[%d] = %d is negative", v, d)
		}
		if d > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return nil, errors.New("core: extra diagonal is all zero; use SolveOnce for pure Laplacians")
	}
	aug := g.Clone()
	z := aug.AddNode()
	for v, d := range extra {
		if d > 0 {
			if _, err := aug.AddEdge(v, z, d); err != nil {
				return nil, err
			}
		}
	}
	bAug := make([]float64, n+1)
	copy(bAug, b)
	sum := 0.0
	for _, w := range b {
		sum += w
	}
	bAug[z] = -sum

	cfg.Chebyshev = false
	res, err := SolveOnce(aug, bAug, cfg)
	if err != nil {
		return nil, err
	}
	ground := res.X[z]
	x := make([]float64, n)
	for v := range x {
		x[v] = res.X[v] - ground
	}
	res.X = x
	return res, nil
}

// SDDResidual returns ‖(L + diag(extra)) x − b‖₂ / ‖b‖₂ (verification
// helper for SolveSDD).
//
//distlint:allow testonly sequential residual oracle the SolveSDD reduction is verified against
func SDDResidual(g *graph.Graph, extra []int64, x, b []float64) (float64, error) {
	l := linalg.NewLaplacian(g)
	lx, err := l.MatVec(x)
	if err != nil {
		return 0, err
	}
	if len(extra) != len(x) || len(b) != len(x) {
		return 0, linalg.ErrDimension
	}
	num, den := 0.0, 0.0
	for v := range x {
		r := lx[v] + float64(extra[v])*x[v] - b[v]
		num += r * r
		den += b[v] * b[v]
	}
	if den == 0 { //distlint:allow floateq exact-zero guard before dividing by the grounded column sum
		den = 1
	}
	return math.Sqrt(num / den), nil
}
