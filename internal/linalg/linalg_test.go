package linalg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

// IdentityPreconditioner is plain CG.
type IdentityPreconditioner struct{}

// Apply implements Preconditioner.
func (IdentityPreconditioner) Apply(r []float64) ([]float64, error) { return Copy(r), nil }

// Name implements Preconditioner.
func (IdentityPreconditioner) Name() string { return "identity" }

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("dot=%v", Dot(a, b))
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("norm2")
	}
	y := Copy(b)
	AXPY(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("axpy=%v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Fatalf("scale=%v", y)
	}
	d := Sub(b, a)
	if d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("sub=%v", d)
	}
	if Mean(a) != 2 {
		t.Fatal("mean")
	}
	c := Copy(a)
	CenterMean(c)
	if math.Abs(Mean(c)) > 1e-15 {
		t.Fatal("center")
	}
}

func TestMatVecPath(t *testing.T) {
	g := graph.Path(3)
	l := NewLaplacian(g)
	y, err := l.MatVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	// L = [[1,-1,0],[-1,2,-1],[0,-1,1]]; x=(1,0,-1) -> (1,0,-1)*... compute:
	// y0 = 1*1 - 0 = 1; y1 = -1 + 0 + 1 = 0... precisely [1, 0, -1].
	want := []float64{1, 0, -1}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y=%v", y)
		}
	}
	if _, err := l.MatVec([]float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatal("want dimension error")
	}
}

func TestQuadraticAndNorm(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLaplacian(g)
	x := []float64{1, -1}
	if q := l.Quadratic(x); q != 16 {
		t.Fatalf("quadratic=%v", q)
	}
	if n := l.LNorm(x); n != 4 {
		t.Fatalf("lnorm=%v", n)
	}
}

func TestDegreesAndDense(t *testing.T) {
	g := graph.Star(4)
	l := NewLaplacian(g)
	d := l.Degrees()
	if d[0] != 3 || d[1] != 1 {
		t.Fatalf("degrees=%v", d)
	}
	m := l.Dense()
	if m[0][0] != 3 || m[0][1] != -1 || m[1][1] != 1 || m[1][2] != 0 {
		t.Fatalf("dense=%v", m)
	}
}

func TestSolveExactAgainstMatVec(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(6), graph.Grid(3, 4), graph.Cycle(7),
		graph.RandomConnected(20, 15, 9, 3),
	} {
		l := NewLaplacian(g)
		b := RandomBVector(g.N(), 42)
		x, err := l.SolveExact(b)
		if err != nil {
			t.Fatal(err)
		}
		lx, _ := l.MatVec(x)
		for i := range b {
			if math.Abs(lx[i]-b[i]) > 1e-7 {
				t.Fatalf("n=%d: residual at %d: %g vs %g", g.N(), i, lx[i], b[i])
			}
		}
		if math.Abs(Mean(x)) > 1e-9 {
			t.Fatal("solution not mean-centered")
		}
	}
}

func TestSolveExactErrors(t *testing.T) {
	g := graph.Path(3)
	l := NewLaplacian(g)
	if _, err := l.SolveExact([]float64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatal("want dimension error")
	}
	if _, err := l.SolveExact([]float64{1, 1, 1}); !errors.Is(err, ErrNotInRange) {
		t.Fatal("want range error")
	}
	disc, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLaplacian(disc).SolveExact([]float64{1, -1, 0}); !errors.Is(err, ErrDisconnected) {
		t.Fatal("want disconnected error")
	}
}

func TestRelativeLError(t *testing.T) {
	g := graph.Path(4)
	l := NewLaplacian(g)
	x := []float64{1, 2, 3, 4}
	if e := l.RelativeLError(x, x); e != 0 {
		t.Fatalf("self error=%v", e)
	}
	// Shifting by a constant is in the nullspace: still zero error.
	y := []float64{11, 12, 13, 14}
	if e := l.RelativeLError(y, x); e > 1e-12 {
		t.Fatalf("shift error=%v", e)
	}
}

func TestPCGIdentityAndJacobi(t *testing.T) {
	g := graph.Grid(4, 4)
	l := NewLaplacian(g)
	b := RandomBVector(16, 7)
	xStar, err := l.SolveExact(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Preconditioner{IdentityPreconditioner{}, NewJacobi(l)} {
		res, err := PCG(l, b, m, 1e-10, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if e := l.RelativeLError(res.X, xStar); e > 1e-6 {
			t.Fatalf("%s: L-error %g", m.Name(), e)
		}
		if res.Iterations <= 0 || res.Iterations > 200 {
			t.Fatalf("%s: iterations=%d", m.Name(), res.Iterations)
		}
	}
}

func TestPCGZeroRHS(t *testing.T) {
	g := graph.Path(5)
	l := NewLaplacian(g)
	res, err := PCG(l, make([]float64, 5), IdentityPreconditioner{}, 1e-8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 || Norm2(res.X) != 0 {
		t.Fatal("zero rhs should return zero immediately")
	}
}

func TestPCGToleranceControlsIterations(t *testing.T) {
	g := graph.Grid(5, 5)
	l := NewLaplacian(g)
	b := RandomBVector(25, 3)
	loose, err := PCG(l, b, IdentityPreconditioner{}, 1e-2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := PCG(l, b, IdentityPreconditioner{}, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Iterations <= loose.Iterations {
		t.Fatalf("tight %d <= loose %d", tight.Iterations, loose.Iterations)
	}
}

func TestChebyshev(t *testing.T) {
	g := graph.Path(8)
	l := NewLaplacian(g)
	b := RandomBVector(8, 5)
	lo, hi := SpectralBounds(l)
	if lo <= 0 || hi <= lo {
		t.Fatalf("bounds [%g, %g]", lo, hi)
	}
	res, err := Chebyshev(l, b, lo, hi, 1e-8, 100000)
	if err != nil {
		t.Fatal(err)
	}
	xStar, _ := l.SolveExact(b)
	if e := l.RelativeLError(res.X, xStar); e > 1e-4 {
		t.Fatalf("L-error %g", e)
	}
}

func TestChebyshevBadBounds(t *testing.T) {
	g := graph.Path(3)
	l := NewLaplacian(g)
	if _, err := Chebyshev(l, make([]float64, 3), 0, 1, 1e-8, 10); err == nil {
		t.Fatal("want bounds error")
	}
}

func TestRandomBVectorDeterministicMeanZero(t *testing.T) {
	a := RandomBVector(50, 9)
	b := RandomBVector(50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
	if math.Abs(Mean(a)) > 1e-12 {
		t.Fatal("not mean zero")
	}
}

// Property: PCG solutions satisfy the residual it reports, across random
// graphs and seeds.
func TestPCGResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(15, 10, 5, seed)
		l := NewLaplacian(g)
		b := RandomBVector(15, seed)
		res, err := PCG(l, b, NewJacobi(l), 1e-8, 0)
		if err != nil {
			return false
		}
		lx, _ := l.MatVec(res.X)
		bb := Copy(b)
		CenterMean(bb)
		return Norm2(Sub(lx, bb))/Norm2(bb) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Laplacian quadratic form is nonnegative and zero exactly on
// constants.
func TestQuadraticPSDProperty(t *testing.T) {
	f := func(seed int64, c float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return true
		}
		g := graph.RandomConnected(10, 8, 3, seed)
		l := NewLaplacian(g)
		x := RandomBVector(10, seed+1)
		if l.Quadratic(x) < 0 {
			return false
		}
		constant := make([]float64, 10)
		for i := range constant {
			constant[i] = c
		}
		return math.Abs(l.Quadratic(constant)) < 1e-6*math.Max(1, c*c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
