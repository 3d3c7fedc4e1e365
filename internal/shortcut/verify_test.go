package shortcut

import (
	"errors"
	"math/rand"
	"testing"

	"distlap/internal/graph"
	"distlap/internal/layered"
)

// bruteAugmentedDiameter is the all-pairs reference for augmentedDiameter:
// the exact hop-diameter of G[P ∪ V(H)] (-1 when it is disconnected) and
// its node count.
func bruteAugmentedDiameter(g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID) (diam, k int) {
	seen := make(map[graph.NodeID]bool)
	var nodes []graph.NodeID
	add := func(v graph.NodeID) {
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	for _, v := range part {
		add(v)
	}
	for _, id := range extra {
		add(g.Edge(id).U)
		add(g.Edge(id).V)
	}
	sub, _ := g.Subgraph(nodes)
	return graph.Diameter(sub), len(nodes)
}

// randomExtra draws a random shortcut edge set for part: mostly edges with
// an endpoint already in P ∪ V(H), which keeps the augmented subgraph
// connected, and with probability 1/4 one arbitrary edge of g.
func randomExtra(rng *rand.Rand, g *graph.Graph, part []graph.NodeID) []graph.EdgeID {
	in := make(map[graph.NodeID]bool, len(part))
	for _, v := range part {
		in[v] = true
	}
	var extra []graph.EdgeID
	for tries := rng.Intn(3 * len(part)); tries > 0; tries-- {
		id := rng.Intn(g.M())
		if e := g.Edge(id); in[e.U] || in[e.V] {
			in[e.U], in[e.V] = true, true
			extra = append(extra, id)
		}
	}
	if g.M() > 0 && rng.Intn(4) == 0 {
		extra = append(extra, rng.Intn(g.M()))
	}
	return extra
}

// Property: for parts of at most 192 augmented nodes the dilation
// certificate is the exact diameter of G[P ∪ V(H)]; for larger parts the
// double sweep bounds it as true ≤ certificate ≤ 2·true. A disconnected
// augmented subgraph is an ErrPartDisconnected error either way. One
// kernel serves every call, as in Verify.
func TestAugmentedDiameterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var sub graph.Induced
	// check reports whether the part took the exact branch.
	check := func(g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID) bool {
		t.Helper()
		rng.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
		want, k := bruteAugmentedDiameter(g, part, extra)
		got, err := augmentedDiameter(&sub, g, part, extra)
		switch {
		case want < 0:
			if !errors.Is(err, ErrPartDisconnected) {
				t.Fatalf("disconnected G[P ∪ V(H)]: got (%d, %v), want ErrPartDisconnected", got, err)
			}
		case err != nil:
			t.Fatalf("%d augmented nodes: %v", k, err)
		case k <= 192 && got != want:
			t.Fatalf("%d augmented nodes: certificate %d, exact diameter %d", k, got, want)
		case k > 192 && (got < want || got > 2*want):
			t.Fatalf("%d augmented nodes: certificate %d outside [%d, %d]", k, got, want, 2*want)
		}
		return k <= 192
	}
	small, large := 0, 0
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(120)
		g := graph.RandomConnected(n, rng.Intn(n), 1, rng.Int63())
		for _, part := range RandomConnectedPartition(g, 1+rng.Intn(6), rng.Int63()) {
			if check(g, part, randomExtra(rng, g, part)) {
				small++
			}
		}
	}
	for iter := 0; iter < 12; iter++ {
		n := 200 + rng.Intn(160)
		g := graph.RandomConnected(n, rng.Intn(n/4), 1, rng.Int63())
		if iter%3 == 0 {
			g = graph.Grid(14+iter, 15)
		}
		for _, part := range RandomConnectedPartition(g, 1+rng.Intn(2), rng.Int63()) {
			if !check(g, part, randomExtra(rng, g, part)) {
				large++
			}
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("property exercised %d exact and %d double-sweep parts, want both", small, large)
	}
}

// BenchmarkVerify measures Verify on a fixed seeded layered instance: the
// layered graph Ĝ_2 of a 16×16 grid (512 nodes), cut into 24 random
// connected parts with a Steiner-tree shortcut — the certificate check
// every Proposition 6 aggregation on a layered graph pays.
func BenchmarkVerify(b *testing.B) {
	lay, err := layered.New(graph.Grid(16, 16), 2)
	if err != nil {
		b.Fatal(err)
	}
	parts := RandomConnectedPartition(lay.G, 24, 5)
	s, err := SteinerBuilder{}.Build(lay.G, parts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(lay.G, s); err != nil {
			b.Fatal(err)
		}
	}
}
