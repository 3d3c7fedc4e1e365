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
			sched.push(de, int32(de), k, 1)
		}
	}
	for k := Word(0); k < 2; k++ {
		var got []int
		if !sched.step(func(id int32, w Word) {
			if w != k {
				t.Fatalf("round %d delivered send %d of edge %d", k+1, w, id)
			}
			got = append(got, int(id))
		}) {
			t.Fatalf("round %d: the schedule ended early", k+1)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d delivered %d edges out of ascending order", k+1, len(got))
		}
	}
	if sched.step(func(int32, Word) { t.Fatal("a drained schedule delivered") }) {
		t.Fatal("a drained schedule took another round")
	}
	if m := nw.Metrics(); m.Rounds != 2 || m.Messages != int64(2*len(edges)) {
		t.Fatalf("metrics %+v, want 2 rounds and %d messages", m, 2*len(edges))
	}
}

// A schedule abandoned at its faulty round cap leaves sends queued; the
// next schedule on the network must start with every FIFO empty, every bit
// of the ordered set clear and every send of the store free, or stale
// sends would cross again.
func TestSchedResetAfterAbandon(t *testing.T) {
	g := graph.Grid(8, 8)
	nw := faultyNet(g, 5, faultinject.Spec{FlakyLinkProb: 1, FlakyDropProb: 1})
	trees := []*graph.PartTree{graph.BFSTree(g, 0), graph.BFSTree(g, 63), graph.BFSTree(g, 27)}
	if _, err := convergecast(nw, trees, func(int, graph.NodeID) Word { return 1 }, AggSum); err == nil {
		t.Fatal("a convergecast over links that drop everything completed")
	}
	st := &nw.scr.sched
	if st.set.n == 0 {
		t.Fatal("the abandoned schedule left nothing queued; the test would not exercise the reset")
	}
	newTreeSched(nw)
	for de, f := range st.fifo {
		if f != (fifo{}) {
			t.Fatalf("edge %d still holds sends %d..%d", de, f.head, f.tail)
		}
	}
	for i, w := range st.set.words {
		if w != 0 {
			t.Fatalf("word %d of the set is %#x", i, w)
		}
	}
	for i, w := range st.set.sum {
		if w != 0 {
			t.Fatalf("summary word %d of the set is %#x", i, w)
		}
	}
	if st.set.n != 0 {
		t.Fatalf("the set counts %d members", st.set.n)
	}
	if len(st.sends) != 1 || st.free != 0 {
		t.Fatalf("the store holds %d sends and free list %d, want only the nil send", len(st.sends), st.free)
	}
}

// One edge's FIFO acts on its first eligible send in push order: sends
// pushed with eligible rounds 3, 1 and 2 cross in rounds 1, 2 and 3 as
// second, third, first, and a send a fault plan stalls keeps its place
// ahead of the sends pushed after it.
func TestSchedOneEdgeFIFO(t *testing.T) {
	g := graph.Path(2)
	type crossing struct {
		round int
		id    int32
	}
	run := func(nw *Network, pushes func(sched *treeSched)) []crossing {
		sched := newTreeSched(nw)
		pushes(sched)
		var got []crossing
		for sched.step(func(id int32, _ Word) { got = append(got, crossing{sched.round, id}) }) {
			if sched.round == 1 && len(got) == 0 {
				// Pushed after a round in which the first send stalled.
				sched.push(0, 9, 0, 2)
			}
		}
		return got
	}

	got := run(newNet(g), func(sched *treeSched) {
		sched.push(0, 1, 0, 3)
		sched.push(0, 2, 0, 1)
		sched.push(0, 3, 0, 2)
	})
	if want := []crossing{{1, 2}, {2, 3}, {3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("crossings %v, want %v", got, want)
	}

	// A plan whose first decision on the edge is a one-round delay and
	// whose next two deliver: the stalled send crosses in round 2, ahead
	// of the send pushed behind it, which crosses in round 3.
	spec := faultinject.Spec{DelayProb: 0.5, MaxDelay: 1}
	var plan *faultinject.Plan
	for seed := int64(1); seed < 1000 && plan == nil; seed++ {
		spec.Seed = seed
		p := faultinject.MustNew(spec)
		if p.Link(1, 0).Fate == faultinject.FateDelay &&
			p.Link(2, 0).Fate == faultinject.FateDeliver && p.Link(3, 0).Fate == faultinject.FateDeliver {
			plan = p
		}
	}
	if plan == nil {
		t.Fatal("no seed below 1000 delays round 1 and delivers rounds 2 and 3")
	}
	nw := NewNetwork(g, Options{Seed: 1, Faults: plan})
	got = run(nw, func(sched *treeSched) { sched.push(0, 1, 0, 1) })
	if want := []crossing{{2, 1}, {3, 9}}; !slices.Equal(got, want) {
		t.Fatalf("crossings %v, want %v", got, want)
	}
	if fs := nw.FaultStats(); fs.Delays != 1 {
		t.Fatalf("fault stats %+v, want one delay", fs)
	}
}
