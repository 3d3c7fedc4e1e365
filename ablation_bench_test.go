package distlap_test

// Ablation benchmarks for the design choices called out in DESIGN.md §4.
// Each reports the measured CONGEST rounds of its configuration as a
// custom metric (rounds/op) so `go test -bench=Ablation` prints the
// comparison directly.

import (
	"testing"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
)

// BenchmarkAblationDelays compares the tree-aggregation scheduler with and
// without random initial delays under heavy congestion (64 trees sharing a
// path).
func BenchmarkAblationDelays(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "random-delays"
		if disable {
			name = "no-delays"
		}
		b.Run(name, func(b *testing.B) {
			g := graph.Path(64)
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				nw := congest.NewNetwork(g, congest.Options{
					Seed:                int64(i + 1),
					DisableRandomDelays: disable,
				})
				trees := make([]*graph.Tree, 64)
				for t := range trees {
					trees[t] = graph.BFSTree(g, 0)
				}
				if _, err := nw.ConvergecastMany(trees,
					func(int, graph.NodeID) congest.Word { return 1 },
					congest.AggSum); err != nil {
					b.Fatal(err)
				}
				totalRounds += nw.Rounds()
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkAblationPrecond sweeps the solver's preconditioners on a fixed
// system, reporting iterations and rounds per solve.
func BenchmarkAblationPrecond(b *testing.B) {
	g := graph.Grid(10, 10)
	rhs := linalg.RandomBVector(g.N(), 3)
	preconds := []core.Preconditioner{
		&core.IdentityPrecond{},
		&core.JacobiPrecond{},
		&core.TreePrecond{},
		core.NewSchwarzPrecond(10, 2, 7),
	}
	for _, pre := range preconds {
		pre := pre
		b.Run(pre.Name(), func(b *testing.B) {
			totalRounds, totalIters := 0, 0
			for i := 0; i < b.N; i++ {
				nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
				comm, err := core.NewCongestComm(nw, false)
				if err != nil {
					b.Fatal(err)
				}
				if err := pre.Setup(comm); err != nil {
					b.Fatal(err)
				}
				res, err := core.Iterate(comm, rhs, pre, core.Options{Tol: 1e-8})
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res.Rounds
				totalIters += res.Iterations
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(totalIters)/float64(b.N), "iters/op")
		})
	}
}

// BenchmarkAblationPWAOracle compares the naive global-tree oracle against
// the universal per-cluster oracle inside the solver (the E9b ablation as
// a bench target).
func BenchmarkAblationPWAOracle(b *testing.B) {
	g := graph.RandomRegular(128, 4, 5)
	rhs := linalg.RandomBVector(g.N(), 2)
	for _, mode := range []core.Mode{core.ModeUniversal, core.ModeBaseline, core.ModeHybrid} {
		mode := mode
		b.Run(string(mode), func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				res, err := core.SolveOnce(g, rhs, core.PrepareConfig{Mode: mode, Tol: 1e-6, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res.Rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkAblationIteration compares the two distributed iterations (PCG
// with per-iteration reductions vs Chebyshev with sparse residual checks)
// on a high-diameter topology.
func BenchmarkAblationIteration(b *testing.B) {
	g := graph.Path(128)
	rhs := linalg.RandomBVector(g.N(), 9)
	b.Run("pcg", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
			comm, err := core.NewCongestComm(nw, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Iterate(comm, rhs, nil, core.Options{Tol: 1e-5})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Rounds
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
	})
	b.Run("chebyshev", func(b *testing.B) {
		lo, hi := linalg.SpectralBounds(linalg.NewLaplacian(g))
		total := 0
		for i := 0; i < b.N; i++ {
			nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1})
			comm, err := core.NewCongestComm(nw, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.SolveChebyshev(comm, rhs, core.ChebyshevOptions{
				Tol: 1e-5, Lo: lo, Hi: hi, CheckEvery: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Rounds
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
	})
}
