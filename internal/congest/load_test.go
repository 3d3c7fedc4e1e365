package congest

import (
	"math/rand"
	"slices"
	"testing"

	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

// The network's load counters are exact on every graph: after random tree
// sets swept both ways (AggregateMany, UpDownMany), an Exchange round and
// RouteMany packets along shortest paths, Messages and MaxEdgeLoad equal
// what an InMemory collector recorded per directed edge. On Ĝ_p the trees
// and paths cross clique edges, whose loads the network keeps in its
// sparse table, and a burst of packets over one clique edge makes it the
// most loaded, so MaxEdgeLoad comes from the sparse table there; on a
// plain graph every load is dense.
func TestLoadCountersMatchTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		g := graph.RandomConnected(6+rng.Intn(30), rng.Intn(20), 5, rng.Int63())
		layered := trial%2 == 1
		if layered {
			g = graph.Layers(g, 2+rng.Intn(6))
		}
		tr := simtrace.NewInMemory()
		nw := NewNetwork(g, Options{Seed: rng.Int63(), Trace: tr})

		s := mustSet(t, g, randomTrees(rng, g, 1+rng.Intn(8))...)
		val := func(_ int, v graph.NodeID) Word { return Word(v) }
		if _, err := nw.AggregateMany(s, val, AggSum); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		down := func(_, _, _ int, parentVal, childSub Word) Word { return parentVal + childSub }
		if err := nw.UpDownMany(s, val, AggSum, func(int, Word) Word { return 0 }, down, func(int, int, Word) {}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return 1, (v+h.Edge)%3 == 0 },
			func(graph.NodeID, graph.Half, Word) {},
		)
		var pkts []Packet
		for i := rng.Intn(12); i >= 0; i-- {
			src, dst := rng.Intn(g.N()), rng.Intn(g.N())
			pkts = append(pkts, Packet{Start: src, Edges: shortestPath(g, src, dst), Payload: Word(i)})
		}
		if layered {
			hot := g.StoredM() + rng.Intn(g.M()-g.StoredM())
			for i := 0; i < 64; i++ {
				pkts = append(pkts, Packet{Start: g.Edge(hot).U, Edges: []graph.EdgeID{hot}})
			}
		}
		if _, err := nw.RouteMany(pkts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		top := tr.TopEdges(simtrace.EngineCongest, -1)
		var total int64
		clique := false
		for _, e := range top {
			total += e.Words
			clique = clique || e.Edge >= 2*g.StoredM()
		}
		if clique != layered || (layered && top[0].Edge < 2*g.StoredM()) {
			t.Fatalf("trial %d (layered %v): clique edges charged %v, the most loaded directed edge %d of %d stored",
				trial, layered, clique, top[0].Edge, 2*g.StoredM())
		}
		if m := nw.Metrics(); m.Messages != total || int64(m.MaxEdgeLoad) != top[0].Words {
			t.Fatalf("trial %d (layered %v): the network counts %d messages and max edge load %d, the trace %d and %d",
				trial, layered, m.Messages, m.MaxEdgeLoad, total, top[0].Words)
		}
	}
}

// shortestPath returns the edges of a BFS path from src to dst in g.
func shortestPath(g *graph.Graph, src, dst graph.NodeID) []graph.EdgeID {
	r := graph.BFS(g, src)
	var path []graph.EdgeID
	for v := dst; v != src; v = r.Parent[v] {
		path = append(path, r.ParentEdge[v])
	}
	slices.Reverse(path)
	return path
}
