package apps

import (
	"math"
	"testing"

	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
)

func TestSpectralPartitionBarbell(t *testing.T) {
	// The Fiedler sign cut of a barbell must be the bridge: the two
	// cliques land on opposite sides.
	g := graph.Barbell(5, 0)
	sp := &SpectralPartitioner{Mode: core.ModeUniversal, Seed: 1}
	res, err := sp.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SideA) != 5 {
		t.Fatalf("side size %d, want 5 (one clique)", len(res.SideA))
	}
	if res.CutWeight != 1 {
		t.Fatalf("cut weight %d, want 1 (the bridge)", res.CutWeight)
	}
	if res.Rounds <= 0 || res.Solves != 12 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestSpectralLambda2MatchesExact(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(8),
		graph.Cycle(9),
		graph.Grid(3, 4),
	} {
		sp := &SpectralPartitioner{Mode: core.ModeUniversal, Seed: 2, Iterations: 30}
		res, err := sp.Partition(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Lambda2Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Lambda2-want) > 1e-3*math.Max(1, want) {
			t.Fatalf("n=%d: lambda2 %v vs exact %v", g.N(), res.Lambda2, want)
		}
	}
}

func TestLambda2ExactKnownValues(t *testing.T) {
	// Complete graph K_n: lambda2 = n.
	lam, err := Lambda2Exact(graph.Complete(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam-5) > 1e-8 {
		t.Fatalf("K5 lambda2 %v, want 5", lam)
	}
	// Path P_n: lambda2 = 2(1 - cos(pi/n)).
	n := 6
	lam, err = Lambda2Exact(graph.Path(n))
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (1 - math.Cos(math.Pi/float64(n)))
	if math.Abs(lam-want) > 1e-8 {
		t.Fatalf("P6 lambda2 %v, want %v", lam, want)
	}
}

func TestSpectralPartitionErrors(t *testing.T) {
	sp := &SpectralPartitioner{Mode: core.ModeUniversal}
	if _, err := sp.Partition(edgeGraph(t, 1, nil)); err == nil {
		t.Fatal("want size error")
	}
	disc := edgeGraph(t, 4, [][3]int64{{0, 1, 1}, {2, 3, 1}})
	if _, err := sp.Partition(disc); err == nil {
		t.Fatal("want disconnected error")
	}
	if _, err := Lambda2Exact(edgeGraph(t, 1, nil)); err == nil {
		t.Fatal("want size error")
	}
}

func TestSpectralFiedlerIsUnitMeanZero(t *testing.T) {
	g := graph.Grid(4, 4)
	sp := &SpectralPartitioner{Mode: core.ModeUniversal, Seed: 3}
	res, err := sp.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(linalg.Norm2(res.Fiedler)-1) > 1e-9 {
		t.Fatal("not unit norm")
	}
	if math.Abs(linalg.Mean(res.Fiedler)) > 1e-9 {
		t.Fatal("not mean zero")
	}
}
