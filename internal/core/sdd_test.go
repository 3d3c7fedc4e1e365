package core

import (
	"math"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
	"distlap/internal/linalg"
)

func TestSolveSDDAgainstDense(t *testing.T) {
	g := graph.Grid(4, 4)
	extra := make([]int64, 16)
	extra[0], extra[5], extra[15] = 3, 1, 2
	b := linalg.RandomBVector(16, 3)
	b[2] += 5 // b need not sum to zero for SDD systems

	res, err := SolveSDD(g, extra, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := SDDResidual(g, extra, res.X, b)
	if err != nil {
		t.Fatal(err)
	}
	if r > 1e-6 {
		t.Fatalf("SDD residual %g", r)
	}
	// Dense cross-check: (L + diag)x = b solved by elimination.
	want := denseSDDSolve(t, g, extra, b)
	for v := range want {
		if math.Abs(res.X[v]-want[v]) > 1e-5 {
			t.Fatalf("entry %d: %g vs %g", v, res.X[v], want[v])
		}
	}
}

func denseSDDSolve(t *testing.T, g *graph.Graph, extra []int64, b []float64) []float64 {
	t.Helper()
	n := g.N()
	a := linalg.NewLaplacian(g).Dense()
	for v := 0; v < n; v++ {
		a[v][v] += float64(extra[v])
		a[v] = append(a[v], b[v])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			t.Fatal("singular dense SDD system")
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for v := 0; v < n; v++ {
		x[v] = a[v][n] / a[v][v]
	}
	return x
}

func TestSolveSDDInputValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := SolveSDD(g, []int64{1}, make([]float64, 3), PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 1}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := SolveSDD(g, []int64{0, -1, 0}, make([]float64, 3), PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 1}); err == nil {
		t.Fatal("want negativity error")
	}
	if _, err := SolveSDD(g, []int64{0, 0, 0}, make([]float64, 3), PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 1}); err == nil {
		t.Fatal("want all-zero error")
	}
}

func TestSolveSDDUniformRegularization(t *testing.T) {
	// (L + I) x = 1 on a path: x should be positive everywhere and
	// symmetric around the middle.
	g := graph.Path(5)
	extra := []int64{1, 1, 1, 1, 1}
	b := []float64{1, 1, 1, 1, 1}
	res, err := SolveSDD(g, extra, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range res.X {
		if x <= 0 {
			t.Fatalf("x[%d]=%g, want positive", v, x)
		}
	}
	if math.Abs(res.X[0]-res.X[4]) > 1e-6 || math.Abs(res.X[1]-res.X[3]) > 1e-6 {
		t.Fatalf("asymmetric solution %v", res.X)
	}
}

// Property: SolveSDD residuals hold across random graphs, diagonals and
// right-hand sides.
func TestSolveSDDProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(12, 8, 3, seed)
		extra := make([]int64, 12)
		extra[int(uint64(seed)%12)] = 2
		extra[0] += 1
		b := linalg.RandomBVector(12, seed+1)
		b[3] += 2
		res, err := SolveSDD(g, extra, b, PrepareConfig{Mode: ModeUniversal, Tol: 1e-9, Seed: seed})
		if err != nil {
			return false
		}
		r, err := SDDResidual(g, extra, res.X, b)
		return err == nil && r < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
