package shortcut

import (
	"errors"
	"math/rand"
	"slices"
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
// augmented subgraph is an ErrPartDisconnected error either way. Given a
// floor (the certificate of the parts before), the routine returns the
// larger of the two. One certifier serves every call, as in Verify.
//
// Besides random parts of random graphs, the cases include the shapes that
// stress eccentricity bounding: cycles, where every node has the same
// eccentricity and every node is swept; paths and complete trees, where
// two sweeps settle it; and the Lemma 18 parts that EmbedPaths lays out on
// Ĝ_L, each checked alone, with random extra edges, and as the whole Ĝ_L.
func TestAugmentedDiameterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var c certifier
	// check reports whether the part took the exact branch.
	check := func(g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID) bool {
		t.Helper()
		rng.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
		want, k := bruteAugmentedDiameter(g, part, extra)
		got, err := c.augmentedDiameter(g, part, extra, 0)
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
		if want >= 0 && k <= 192 {
			floor := rng.Intn(2*want + 2)
			if f, err := c.augmentedDiameter(g, part, extra, floor); err != nil || f != max(floor, want) {
				t.Fatalf("%d augmented nodes, floor %d: got (%d, %v), want %d", k, floor, f, err, max(floor, want))
			}
		}
		return k <= 192
	}
	whole := func(g *graph.Graph) []graph.NodeID {
		all := make([]graph.NodeID, g.N())
		for v := range all {
			all[v] = v
		}
		return all
	}
	small, large := 0, 0
	count := func(exact bool) {
		if exact {
			small++
		} else {
			large++
		}
	}
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(120)
		g := graph.RandomConnected(n, rng.Intn(n), 1, rng.Int63())
		for _, part := range RandomConnectedPartition(g, 1+rng.Intn(6), rng.Int63()) {
			count(check(g, part, randomExtra(rng, g, part)))
		}
	}
	for iter := 0; iter < 12; iter++ {
		n := 200 + rng.Intn(160)
		g := graph.RandomConnected(n, rng.Intn(n/4), 1, rng.Int63())
		if iter%3 == 0 {
			g = graph.Grid(14+iter, 15)
		}
		for _, part := range RandomConnectedPartition(g, 1+rng.Intn(2), rng.Int63()) {
			count(check(g, part, randomExtra(rng, g, part)))
		}
	}
	for _, n := range []int{3, 4, 5, 16, 63, 191, 192, 193, 250} {
		cycle := graph.Cycle(n)
		count(check(cycle, whole(cycle), nil))
		// An arc made whole again by the rest of the cycle as extra edges.
		arc := []graph.NodeID{0, 1}
		extra := make([]graph.EdgeID, 0, n)
		for id := 0; id < cycle.M(); id++ {
			if e := cycle.Edge(id); e.U > 1 || e.V > 1 {
				extra = append(extra, id)
			}
		}
		count(check(cycle, arc, extra))
		path := graph.Path(n)
		count(check(path, whole(path), nil))
	}
	for _, shape := range [][2]int{{2, 4}, {2, 7}, {3, 4}, {5, 3}} {
		tree := graph.CompleteTree(shape[0], shape[1])
		count(check(tree, whole(tree), nil))
		for _, part := range RandomConnectedPartition(tree, 3, rng.Int63()) {
			count(check(tree, part, randomExtra(rng, tree, part)))
		}
	}
	for _, side := range []int{4, 6, 8} {
		base := graph.Grid(side, side)
		var paths []layered.Path
		for _, part := range gridRows(side, side) {
			paths = append(paths, gridPath(base, part))
		}
		for col := 0; col < side; col++ {
			var part []graph.NodeID
			for row := 0; row < side; row++ {
				part = append(part, graph.GridID(side, row, col))
			}
			paths = append(paths, gridPath(base, part))
		}
		emb, err := layered.EmbedPaths(base, paths, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		lg := emb.Layered.G
		for _, part := range emb.Parts {
			part = slices.Clone(part)
			count(check(lg, part, nil))
			count(check(lg, part, randomExtra(rng, lg, part)))
		}
		count(check(lg, whole(lg), nil))
	}
	if small == 0 || large == 0 {
		t.Fatalf("property exercised %d exact and %d double-sweep parts, want both", small, large)
	}
}

// gridPath returns nodes, consecutive neighbours of g, as a layered.Path.
func gridPath(g *graph.Graph, nodes []graph.NodeID) layered.Path {
	p := layered.Path{Nodes: nodes}
	for i := 0; i+1 < len(nodes); i++ {
		for _, h := range g.Neighbors(nodes[i]) {
			if h.To == nodes[i+1] {
				p.Edges = append(p.Edges, h.Edge)
				break
			}
		}
	}
	return p
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
	s, err := buildSteiner(NewSkeleton(lay.G), parts)
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
