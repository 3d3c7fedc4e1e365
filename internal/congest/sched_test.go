package congest

import (
	"math/rand"
	"slices"
	"testing"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
)

// A round walks the nonempty FIFOs in ascending directed-edge order, the
// order a sorted active list gave: across the 64-edge words of the ordered
// set and across its summary words (4,096 edges each), whatever order the
// edges were pushed in. Each edge carries two sends, so the second round
// checks FIFO order and the emptied edges leaving the set as well.
func TestSchedWalksEdgesInOrder(t *testing.T) {
	g := graph.Path(5000)
	m := 2 * g.M()
	if m <= 2*4096 {
		t.Fatalf("%d directed edges span fewer than three summary words", m)
	}
	nw := newNet(g)
	rng := rand.New(rand.NewSource(7))
	edges := []int{0, 1, 63, 64, 127, 128, 4095, 4096, 4097, 8191, 8192, m - 1}
	for len(edges) < 400 {
		if de := rng.Intn(m); !slices.Contains(edges, de) {
			edges = append(edges, de)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	pushed := make([]bool, m)
	for _, de := range edges {
		pushed[de] = true
	}
	var want []int // the pushed edges in ascending order
	for de, ok := range pushed {
		if ok {
			want = append(want, de)
		}
	}

	sched := newTreeSched(nw)
	for k := Word(0); k < 2; k++ {
		for _, de := range edges {
			sched.push(de, pendingSend{id: int32(de), w: k, eligible: 1})
		}
	}
	for k := Word(0); k < 2; k++ {
		var got []int
		if !sched.step(func(ps pendingSend) {
			if ps.w != k {
				t.Fatalf("round %d delivered send %d of edge %d", k+1, ps.w, ps.id)
			}
			got = append(got, int(ps.id))
		}) {
			t.Fatalf("round %d: the schedule ended early", k+1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d delivered %d edges out of ascending order", k+1, len(got))
		}
	}
	if sched.step(func(pendingSend) { t.Fatal("a drained schedule delivered") }) {
		t.Fatal("a drained schedule took another round")
	}
	if m := nw.Metrics(); m.Rounds != 2 || m.Messages != int64(2*len(edges)) {
		t.Fatalf("metrics %+v, want 2 rounds and %d messages", m, 2*len(edges))
	}
}

// A schedule abandoned at its faulty round cap leaves sends queued; the
// next schedule on the network must start with every FIFO empty and every
// bit of the ordered set clear, or stale sends would cross again.
func TestSchedResetAfterAbandon(t *testing.T) {
	g := graph.Grid(8, 8)
	nw := faultyNet(g, 5, faultinject.Spec{FlakyLinkProb: 1, FlakyDropProb: 1})
	trees := []*graph.Tree{graph.BFSTree(g, 0), graph.BFSTree(g, 63), graph.BFSTree(g, 27)}
	if _, err := convergecast(nw, trees, func(int, graph.NodeID) Word { return 1 }, AggSum); err == nil {
		t.Fatal("a convergecast over links that drop everything completed")
	}
	scr := &nw.scr
	if scr.schedSet.n == 0 {
		t.Fatal("the abandoned schedule left nothing queued; the test would not exercise the reset")
	}
	newTreeSched(nw)
	for de, q := range scr.schedQueues {
		if len(q) != 0 {
			t.Fatalf("edge %d still holds %d sends", de, len(q))
		}
	}
	for i, w := range scr.schedSet.words {
		if w != 0 {
			t.Fatalf("word %d of the set is %#x", i, w)
		}
	}
	for i, w := range scr.schedSet.sum {
		if w != 0 {
			t.Fatalf("summary word %d of the set is %#x", i, w)
		}
	}
	if scr.schedSet.n != 0 {
		t.Fatalf("the set counts %d members", scr.schedSet.n)
	}
}
