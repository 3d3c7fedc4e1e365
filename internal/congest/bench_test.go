package congest

import (
	"testing"

	"distlap/internal/graph"
)

// BenchmarkExchange times one reliable Exchange round on grid-400 in which
// every node sends a word along every half-edge (1,520 messages): the
// engine's per-word path through Neighbors, dirEdge and the charge, after
// the first round has warmed the pooled delivery buffer.
func BenchmarkExchange(b *testing.B) {
	g := graph.Grid(20, 20)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	var sum Word
	send := func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v), true }
	recv := func(v graph.NodeID, h graph.Half, w Word) { sum += w }
	nw.Exchange(send, recv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Exchange(send, recv)
	}
}

// BenchmarkLayeredSubnetwork times what one Lemma 16 path batch pays for
// its network: NewNetwork over Ĝ_61 of Grid(8,8), E7's largest Ĝ_L (6,832
// stored layer edges, 117,120 computed clique edges), and one
// AggregateMany over eight short trees that cross both kinds. Its bytes
// per operation (-benchmem) are the network's per-edge state: loads dense
// over the layer edges, and a send store the size of the trees' links.
func BenchmarkLayeredSubnetwork(b *testing.B) {
	base := graph.Grid(8, 8)
	g := graph.Layers(base, 61)
	s := mustSet(b, g, layeredTrees(base, g)...)
	val := func(_ int, v graph.NodeID) Word { return Word(v % 7) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subnetSink = NewNetwork(g, Options{Supported: true, Seed: 3})
		if _, err := subnetSink.AggregateMany(s, val, AggSum); err != nil {
			b.Fatal(err)
		}
	}
}

// subnetSink keeps BenchmarkLayeredSubnetwork's network on the heap, as a
// path batch's network is.
var subnetSink *Network

// layeredTrees returns short trees over g = Ĝ_p of base, p ≥ 4: for every
// eighth base node v, the tree over v's copies in layers 0 to 3 and v's
// base neighbours in layer 0, rooted at v, whose edges are clique and layer
// edges. Base adjacency stands in for g's, whose first Neighbors call
// would lay out every clique.
func layeredTrees(base, g *graph.Graph) []*graph.PartTree {
	var sub graph.Induced
	var trees []*graph.PartTree
	for v := 0; v < base.N(); v += 8 {
		members := []graph.NodeID{v, base.N() + v, 2*base.N() + v, 3*base.N() + v}
		for _, h := range base.Neighbors(v) {
			members = append(members, h.To)
		}
		trees = append(trees, sub.Tree(g, members, v))
	}
	return trees
}
