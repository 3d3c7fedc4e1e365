package distlap_test

// Determinism regression tests: the two invariants distlint enforces
// statically are verified dynamically here. (a) Identical seeds must
// produce bit-identical executions — solutions, certificates and metrics.
// (b) Phases the theory says are schedule-independent (BFS flooding,
// seeded generation) must charge identical costs under different seeds.

import (
	"math"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/shortcut"
)

// runPipeline executes the representative pipeline — seeded graph
// generation, shortcut-quality estimation, full distributed solve — and
// returns everything observable about the run.
func runPipeline(t *testing.T, seed int64) ([]float64, shortcut.QualityEstimate, core.EngineMetrics, int) {
	t.Helper()
	g := graph.RandomRegular(96, 4, seed)
	sq, err := shortcut.EstimateSQ(g, seed)
	if err != nil {
		t.Fatalf("EstimateSQ: %v", err)
	}
	b := make([]float64, g.N())
	mean := 0.0
	for i := range b {
		b[i] = math.Sin(float64(3*i + 1))
		mean += b[i]
	}
	mean /= float64(len(b))
	for i := range b {
		b[i] -= mean
	}
	res, err := core.SolveOnce(g, b, core.PrepareConfig{Mode: core.ModeUniversal, Tol: 1e-8, Seed: seed})
	if err != nil {
		t.Fatalf("SolveOnce: %v", err)
	}
	return res.X, sq, res.Metrics.Congest, res.Iterations
}

func TestSameSeedBitIdentical(t *testing.T) {
	const seed = 12345
	x1, sq1, m1, it1 := runPipeline(t, seed)
	x2, sq2, m2, it2 := runPipeline(t, seed)

	if it1 != it2 {
		t.Errorf("iteration counts differ: %d vs %d", it1, it2)
	}
	if m1 != m2 {
		t.Errorf("metrics differ under the same seed: %+v vs %+v", m1, m2)
	}
	if sq1 != sq2 {
		t.Errorf("shortcut quality estimates differ: %+v vs %+v", sq1, sq2)
	}
	if len(x1) != len(x2) {
		t.Fatalf("solution lengths differ: %d vs %d", len(x1), len(x2))
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("solution not bit-identical at %d: %x vs %x",
				i, math.Float64bits(x1[i]), math.Float64bits(x2[i]))
		}
	}
}

func TestDeterministicPhasesAcrossSeeds(t *testing.T) {
	// The graph is fixed (its own generation seed is constant); only the
	// network scheduling seed varies. BFS flooding is a deterministic
	// phase: every node is reached in the round equal to its hop distance
	// regardless of scheduling randomness, so rounds, messages and edge
	// loads must all agree across seeds.
	g := graph.RandomRegular(128, 4, 7)
	nw1 := congest.NewNetwork(g, congest.Options{Seed: 1})
	nw2 := congest.NewNetwork(g, congest.Options{Seed: 999})
	r1 := nw1.BFS(0)
	r2 := nw2.BFS(0)
	if nw1.Metrics() != nw2.Metrics() {
		t.Errorf("BFS metrics differ across seeds: %+v vs %+v", nw1.Metrics(), nw2.Metrics())
	}
	for v := range r1.Dist {
		if r1.Dist[v] != r2.Dist[v] {
			t.Fatalf("BFS distances differ at node %d: %d vs %d", v, r1.Dist[v], r2.Dist[v])
		}
	}

	// Seeded generation is pure: the same generation seed produces the
	// same edge list no matter what else has run.
	ga := graph.RandomRegular(128, 4, 7)
	if ga.N() != g.N() || ga.M() != g.M() {
		t.Fatalf("regenerated graph shape differs: %d/%d vs %d/%d", ga.N(), ga.M(), g.N(), g.M())
	}
	for id := 0; id < g.M(); id++ {
		ea, eb := ga.Edge(id), g.Edge(id)
		if ea.U != eb.U || ea.V != eb.V || ea.Weight != eb.Weight {
			t.Fatalf("edge %d differs: %+v vs %+v", id, ea, eb)
		}
	}

	// Shortcut construction is deterministic given the partition: the
	// certificates must agree across network seeds (the builder never
	// consults the network RNG).
	parts := [][]graph.NodeID{}
	for start := 0; start < g.N(); start += 16 {
		end := start + 16
		if end > g.N() {
			end = g.N()
		}
		part := []graph.NodeID{}
		for v := start; v < end; v++ {
			part = append(part, v)
		}
		parts = append(parts, part)
	}
	// Partitions must be induced-connected; fall back to single-part if
	// the contiguous chunks are not (RandomRegular IDs are arbitrary).
	all := []graph.NodeID{}
	for v := 0; v < g.N(); v++ {
		all = append(all, v)
	}
	if err := shortcut.ValidateParts(g, parts); err != nil {
		parts = [][]graph.NodeID{all}
	}
	s1, err := shortcut.Build(shortcut.NewSkeleton(g), parts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s2, err := shortcut.Build(shortcut.NewSkeleton(g), parts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s1.Congestion != s2.Congestion || s1.Dilation != s2.Dilation {
		t.Errorf("shortcut certificates differ: c=%d/%d d=%d/%d",
			s1.Congestion, s2.Congestion, s1.Dilation, s2.Dilation)
	}
	for i := range s1.Extra {
		if len(s1.Extra[i]) != len(s2.Extra[i]) {
			t.Fatalf("part %d extra edge counts differ: %d vs %d", i, len(s1.Extra[i]), len(s2.Extra[i]))
		}
		for j := range s1.Extra[i] {
			if s1.Extra[i][j] != s2.Extra[i][j] {
				t.Fatalf("part %d extra edge %d differs: %d vs %d", i, j, s1.Extra[i][j], s2.Extra[i][j])
			}
		}
	}
}
