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
