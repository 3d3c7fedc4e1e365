package distlap_test

// One benchmark per experiment table (DESIGN.md §3): each BenchmarkE<k>
// re-runs the corresponding experiment's measurement loop (quick sweeps) so
// `go test -bench=.` regenerates every series' workload. The printed
// tables themselves come from `go run ./cmd/experiments`.

import (
	"context"
	"strconv"
	"testing"

	"distlap"
	"distlap/internal/experiments"
	"distlap/internal/linalg"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.RunWith(id, experiments.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1_CongestedVsDecomposition(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2_LayeredSimulation(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3_LayeredTreewidth(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4_MinorDensityBlowup(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5_LayeredShortcutQuality(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6_TreewidthCongestedPWA(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7_GeneralCongestedPWA(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8_NCCCongestedPWA(b *testing.B)            { benchExperiment(b, "E8") }
func BenchmarkE9a_SolverAccuracyScaling(b *testing.B)     { benchExperiment(b, "E9a") }
func BenchmarkE9b_UniversalVsExistential(b *testing.B)    { benchExperiment(b, "E9b") }
func BenchmarkE10_HybridSolver(b *testing.B)              { benchExperiment(b, "E10") }
func BenchmarkE11_SpanningConnectedSubgraph(b *testing.B) { benchExperiment(b, "E11") }

func BenchmarkE12_AnyToAnyCast(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13_ApproxMaxFlow(b *testing.B) { benchExperiment(b, "E13") }

func BenchmarkE14_LowStretchTrees(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkSuiteParallel runs the whole quick suite through the parallel
// harness at the default pool width (GOMAXPROCS) — the same code path
// `make bench` exercises. Compare against BenchmarkSuiteSequential to see
// the worker pool's effect on this machine; results are byte-identical
// either way (see TestParallelParity in internal/experiments).
func BenchmarkSuiteParallel(b *testing.B)   { benchSuite(b, 0) }
func BenchmarkSuiteSequential(b *testing.B) { benchSuite(b, 1) }

func benchSuite(b *testing.B, parallel int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, id := range experiments.IDs() {
			tbl, err := experiments.RunWith(id, experiments.Config{Quick: true, Parallel: parallel})
			if err != nil {
				b.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// BenchmarkSolveCold vs BenchmarkInstanceResolve measure the amortization
// the prepared-Instance API buys: the cold path rebuilds the full per-graph
// setup (trees, cluster covers, preconditioner state) on every solve, while
// the instance path prepares once outside the timed loop and each timed
// solve pays iteration only. Neither feeds the gated BENCH metrics — this
// pair exists for `go test -bench Solve` comparisons on a developer box.

func benchGraphAndRHS() (*distlap.Graph, []float64) {
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g := f.Make(100)
			return g, linalg.RandomBVector(g.N(), 5)
		}
	}
	panic("no grid family")
}

func BenchmarkSolveCold(b *testing.B) {
	g, rhs := benchGraphAndRHS()
	sv := distlap.NewSolver(distlap.WithEps(1e-8), distlap.WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(g, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceResolve(b *testing.B) {
	g, rhs := benchGraphAndRHS()
	sv := distlap.NewSolver(distlap.WithEps(1e-8), distlap.WithSeed(1))
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Solve(context.Background(), rhs, distlap.WithRequestSeed(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceMST times one prepared-instance MST request (Borůvka
// over part-wise aggregation, two shortcut solves per phase) on the grid
// and expander graphs the distbench solve workloads prepare, grid-400 and
// expander-512. Set-up stays outside the timed loop, so each operation
// pays what a served MST request pays beyond its HTTP handling.
func BenchmarkInstanceMST(b *testing.B) {
	for _, spec := range []struct {
		family string
		size   int
	}{{"grid", 400}, {"expander", 512}} {
		b.Run(spec.family+"-"+strconv.Itoa(spec.size), func(b *testing.B) {
			inst := preparedFamily(b, spec.family, spec.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.MST(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// preparedFamily prepares the named standard family at size n.
func preparedFamily(tb testing.TB, family string, n int) *distlap.Instance {
	tb.Helper()
	for _, f := range distlap.Families() {
		if f.Name == family {
			inst, err := distlap.NewSolver(distlap.WithSeed(1)).Prepare(context.Background(), f.Make(n))
			if err != nil {
				tb.Fatal(err)
			}
			return inst
		}
	}
	tb.Fatalf("no %s family", family)
	return nil
}
