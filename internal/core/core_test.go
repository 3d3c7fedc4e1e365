package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/linalg"
)

func universalComm(t *testing.T, g *graph.Graph) *CongestComm {
	t.Helper()
	nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
	c, err := NewCongestComm(nw, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// solveWith sets pre up on c and iterates — the path of every caller that
// picks its own preconditioner.
func solveWith(t *testing.T, c Comm, b []float64, pre Preconditioner, tol float64) (*Result, error) {
	t.Helper()
	if err := pre.Setup(c); err != nil {
		t.Fatalf("%s setup: %v", pre.Name(), err)
	}
	return Iterate(c, b, pre, Options{Tol: tol})
}

func TestMatVecMatchesLinalg(t *testing.T) {
	g := graph.RandomConnected(30, 20, 7, 3)
	c := universalComm(t, g)
	l := linalg.NewLaplacian(g)
	x := linalg.RandomBVector(30, 5)
	want, _ := l.MatVec(x)
	got, err := c.MatVecLaplacian(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
	if c.Rounds() != 1 {
		t.Fatalf("matvec rounds=%d, want 1", c.Rounds())
	}
}

func TestGlobalSumsBatched(t *testing.T) {
	g := graph.Grid(5, 5)
	c := universalComm(t, g)
	a := linalg.RandomBVector(25, 1)
	b := linalg.RandomBVector(25, 2)
	ones := make([]float64, 25)
	for i := range ones {
		ones[i] = 1
	}
	sums, err := c.GlobalSums(a, b, ones)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sums[0]) > 1e-9 || math.Abs(sums[1]) > 1e-9 {
		t.Fatalf("mean-zero vectors should sum to 0: %v", sums[:2])
	}
	if sums[2] != 25 {
		t.Fatalf("ones sum=%v", sums[2])
	}
	// Batching: 3 sums over the same tree should cost ~height*2 + batch,
	// far below 3 separate full aggregations... just check it's bounded.
	if c.Rounds() > 6*graph.Diameter(g) {
		t.Fatalf("rounds=%d too high", c.Rounds())
	}
}

func TestSolveIdentityPrecond(t *testing.T) {
	g := graph.Grid(4, 4)
	c := universalComm(t, g)
	b := linalg.RandomBVector(16, 9)
	res, err := Iterate(c, b, nil, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	l := linalg.NewLaplacian(g)
	xStar, _ := l.SolveExact(b)
	if e := l.RelativeLError(res.X, xStar); e > 1e-5 {
		t.Fatalf("L-error %g", e)
	}
	if res.Rounds <= 0 || res.Iterations <= 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestSolveAllPreconditioners(t *testing.T) {
	g := graph.Grid(5, 5)
	b := linalg.RandomBVector(25, 4)
	l := linalg.NewLaplacian(g)
	xStar, _ := l.SolveExact(b)
	preconds := []Preconditioner{
		&IdentityPrecond{},
		&JacobiPrecond{},
		&TreePrecond{},
		NewSchwarzPrecond(6, 2, 11),
	}
	for _, pre := range preconds {
		c := universalComm(t, g)
		res, err := solveWith(t, c, b, pre, 1e-9)
		if err != nil {
			t.Fatalf("%s: %v", pre.Name(), err)
		}
		if e := l.RelativeLError(res.X, xStar); e > 1e-5 {
			t.Fatalf("%s: L-error %g", pre.Name(), e)
		}
	}
}

func TestSolveToleranceScalesIterations(t *testing.T) {
	g := graph.Grid(6, 6)
	b := linalg.RandomBVector(36, 8)
	iters := func(tol float64) int {
		c := universalComm(t, g)
		res, err := solveWith(t, c, b, &JacobiPrecond{}, tol)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations
	}
	if i2, i8 := iters(1e-2), iters(1e-8); i8 <= i2 {
		t.Fatalf("log(1/eps) scaling violated: %d (1e-2) vs %d (1e-8)", i2, i8)
	}
}

func TestSolveBadInputs(t *testing.T) {
	g := graph.Path(4)
	c := universalComm(t, g)
	if _, err := Iterate(c, []float64{1}, nil, Options{Tol: 1e-6}); err == nil {
		t.Fatal("want dimension error")
	}
	if _, err := Iterate(c, make([]float64, 4), nil, Options{Tol: 0}); err == nil {
		t.Fatal("want tolerance error")
	}
	if _, err := Iterate(c, make([]float64, 4), nil, Options{Tol: 2}); err == nil {
		t.Fatal("want tolerance error")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := graph.Path(5)
	c := universalComm(t, g)
	res, err := Iterate(c, make([]float64, 5), nil, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || linalg.Norm2(res.X) != 0 {
		t.Fatal("zero rhs should return zero")
	}
}

func TestHybridCommSolve(t *testing.T) {
	g := graph.Path(40) // high diameter: HYBRID should beat CONGEST
	b := linalg.RandomBVector(40, 3)
	l := linalg.NewLaplacian(g)
	xStar, _ := l.SolveExact(b)

	resU, err := SolveOnce(g, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resH, err := SolveOnce(g, b, PrepareConfig{Mode: ModeHybrid, Tol: 1e-8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"universal": resU, "hybrid": resH} {
		if e := l.RelativeLError(res.X, xStar); e > 1e-5 {
			t.Fatalf("%s: L-error %g", name, e)
		}
	}
	if resH.Rounds >= resU.Rounds {
		t.Fatalf("hybrid rounds %d should beat congest rounds %d on a path",
			resH.Rounds, resU.Rounds)
	}
	if resH.Metrics.NCC == nil || resH.Metrics.NCC.Rounds == 0 {
		t.Fatal("hybrid did not use NCC")
	}
}

func TestBaselineVsUniversalOnLowDiameter(t *testing.T) {
	// Low-diameter, many-cluster topology: the baseline's global-tree
	// cluster sweeps serialize at the root while the universal solver's
	// local cluster trees stay parallel.
	g := graph.RandomRegular(256, 4, 5)
	b := linalg.RandomBVector(g.N(), 2)
	resB, err := SolveOnce(g, b, PrepareConfig{Mode: ModeBaseline, Tol: 1e-6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resU, err := SolveOnce(g, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	perIterB := float64(resB.Rounds) / float64(resB.Iterations)
	perIterU := float64(resU.Rounds) / float64(resU.Iterations)
	if perIterU >= perIterB {
		t.Fatalf("universal per-iteration rounds %.1f should beat baseline %.1f",
			perIterU, perIterB)
	}
}

func TestModeCongestPaysConstruction(t *testing.T) {
	g := graph.Grid(6, 6)
	b := linalg.RandomBVector(36, 1)
	resS, err := SolveOnce(g, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := SolveOnce(g, b, PrepareConfig{Mode: ModeCongest, Tol: 1e-6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resC.Rounds <= resS.Rounds {
		t.Fatalf("CONGEST rounds %d should exceed Supported rounds %d",
			resC.Rounds, resS.Rounds)
	}
}

func TestPrepareInstanceUnknownMode(t *testing.T) {
	if _, err := PrepareInstance(context.Background(), graph.Path(3), PrepareConfig{Mode: "nope"}); err == nil {
		t.Fatal("want unknown-mode error")
	}
}

func TestSchwarzSetupCoversAllNodes(t *testing.T) {
	g := graph.Grid(6, 6)
	c := universalComm(t, g)
	p := NewSchwarzPrecond(6, 3, 7)
	if err := p.Setup(c); err != nil {
		t.Fatal(err)
	}
	counts := make(map[graph.NodeID]int)
	for _, cl := range p.Clusters() {
		for _, v := range cl {
			counts[v]++
		}
	}
	if len(counts) != 36 {
		t.Fatalf("covered %d nodes", len(counts))
	}
	for v, cnt := range counts {
		if cnt != 3 {
			t.Fatalf("node %d in %d clusters, want overlap 3", v, cnt)
		}
	}
}

func TestFloatWordRoundtrip(t *testing.T) {
	for _, f := range []float64{0, 1, -3.25, math.Pi, 1e-300, -1e300} {
		if got := congest.WordFloat(congest.FloatWord(f)); got != f {
			t.Fatalf("%v -> %v", f, got)
		}
	}
}

// Property: the solver reaches the requested residual on random connected
// graphs with the Schwarz preconditioner across modes.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(20, 15, 4, seed)
		b := linalg.RandomBVector(20, seed)
		for _, mode := range []Mode{ModeUniversal, ModeBaseline, ModeHybrid} {
			res, err := SolveOnce(g, b, PrepareConfig{Mode: mode, Tol: 1e-7, Seed: seed})
			if err != nil {
				return false
			}
			if res.Residual > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: the solution's relative L-error is below the residual tolerance
// scaled by a modest condition-dependent factor.
func TestSolveLErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(16, 10, 3, seed)
		l := linalg.NewLaplacian(g)
		b := linalg.RandomBVector(16, seed+1)
		xStar, err := l.SolveExact(b)
		if err != nil {
			return false
		}
		res, err := SolveOnce(g, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-10, Seed: seed})
		if err != nil {
			return false
		}
		return l.RelativeLError(res.X, xStar) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLowStretchTreePrecond(t *testing.T) {
	g := graph.Grid(6, 6)
	b := linalg.RandomBVector(36, 5)
	l := linalg.NewLaplacian(g)
	xStar, _ := l.SolveExact(b)
	c := universalComm(t, g)
	res, err := solveWith(t, c, b, &TreePrecond{LowStretch: true, Seed: 3}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if e := l.RelativeLError(res.X, xStar); e > 1e-5 {
		t.Fatalf("L-error %g", e)
	}
}

func TestSchwarzMPXClusters(t *testing.T) {
	g := graph.Grid(6, 6)
	b := linalg.RandomBVector(36, 2)
	c := universalComm(t, g)
	pre := &SchwarzPrecond{TargetSize: 8, Overlap: 2, Seed: 4, Method: "mpx"}
	res, err := solveWith(t, c, b, pre, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 1e-8 {
		t.Fatalf("residual %g", res.Residual)
	}
	counts := map[graph.NodeID]int{}
	for _, cl := range pre.Clusters() {
		for _, v := range cl {
			counts[v]++
		}
	}
	for v, cnt := range counts {
		if cnt != 2 {
			t.Fatalf("node %d in %d clusters", v, cnt)
		}
	}
}

func TestSchwarzUnknownMethod(t *testing.T) {
	g := graph.Path(6)
	c := universalComm(t, g)
	pre := &SchwarzPrecond{TargetSize: 3, Overlap: 1, Method: "voronoi?"}
	if err := pre.Setup(c); err == nil {
		t.Fatal("want unknown-method error")
	}
}
