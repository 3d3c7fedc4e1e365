package core

import (
	"testing"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/linalg"
)

// chebOpts returns options at tolerance tol with the safe automatic
// spectral bounds a Chebyshev instance would cache for g.
func chebOpts(g *graph.Graph, tol float64) ChebyshevOptions {
	lo, hi := linalg.SpectralBounds(linalg.NewLaplacian(g))
	return ChebyshevOptions{Tol: tol, Lo: lo, Hi: hi}
}

func TestSolveChebyshevMatchesExact(t *testing.T) {
	g := graph.Path(12)
	b := linalg.RandomBVector(12, 4)
	c := universalComm(t, g)
	res, err := SolveChebyshev(c, b, chebOpts(g, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	l := linalg.NewLaplacian(g)
	xStar, _ := l.SolveExact(b)
	if e := l.RelativeLError(res.X, xStar); e > 1e-4 {
		t.Fatalf("L-error %g", e)
	}
	if res.Iterations <= 0 || res.Rounds <= 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestSolveChebyshevTighterBoundsFewerIterations(t *testing.T) {
	g := graph.Grid(5, 5)
	b := linalg.RandomBVector(25, 2)
	l := linalg.NewLaplacian(g)
	loose, err := SolveChebyshev(universalComm(t, g), b, chebOpts(g, 1e-6))
	if err != nil {
		t.Fatal(err)
	}
	// Hand the solver honest tighter bounds (grid spectrum is well inside
	// the Gershgorin/1-over-n² defaults).
	lo, hi := linalg.SpectralBounds(l)
	tight, err := SolveChebyshev(universalComm(t, g), b, ChebyshevOptions{
		Tol: 1e-6, Lo: lo * 16, Hi: hi,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Iterations >= loose.Iterations {
		t.Fatalf("tight bounds %d iters >= loose %d", tight.Iterations, loose.Iterations)
	}
}

func TestSolveChebyshevBadInputs(t *testing.T) {
	g := graph.Path(4)
	c := universalComm(t, g)
	if _, err := SolveChebyshev(c, []float64{1}, ChebyshevOptions{Tol: 1e-6}); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := SolveChebyshev(c, make([]float64, 4), ChebyshevOptions{Tol: 0}); err == nil {
		t.Fatal("want tolerance error")
	}
	if _, err := SolveChebyshev(c, make([]float64, 4), ChebyshevOptions{Tol: 1e-6, Lo: 5, Hi: 1}); err == nil {
		t.Fatal("want bounds error")
	}
	if _, err := SolveChebyshev(c, make([]float64, 4), ChebyshevOptions{Tol: 1e-6}); err == nil {
		t.Fatal("want missing-bounds error")
	}
}

func TestSolveChebyshevZeroRHS(t *testing.T) {
	g := graph.Path(4)
	c := universalComm(t, g)
	res, err := SolveChebyshev(c, make([]float64, 4), chebOpts(g, 1e-6))
	if err != nil || res.Iterations != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestChebyshevCommunicationProfile(t *testing.T) {
	// On a high-diameter path, Chebyshev's rounds-per-iteration must be
	// far below PCG's (no per-iteration global sums).
	g := graph.Path(96)
	b := linalg.RandomBVector(96, 6)
	nwC := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
	cc, _ := NewCongestComm(nwC, false)
	opts := chebOpts(g, 1e-5)
	opts.CheckEvery = 16
	cheb, err := SolveChebyshev(cc, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	nwP := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
	pc, _ := NewCongestComm(nwP, false)
	pcg, err := Iterate(pc, b, nil, Options{Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	perCheb := float64(cheb.Rounds) / float64(cheb.Iterations)
	perPCG := float64(pcg.Rounds) / float64(pcg.Iterations)
	if perCheb >= perPCG {
		t.Fatalf("chebyshev %f rounds/iter >= pcg %f", perCheb, perPCG)
	}
}
