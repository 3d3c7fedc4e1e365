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

	sched := newTreeSched(nw, everyEdge(g))
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
// sends would cross again. The store is sized by links, so the next
// schedule may be smaller than the abandoned one (its leftovers lie beyond
// the new schedule's links) or larger (the store grows); the invariant
// holds at each.
func TestSchedResetAfterAbandon(t *testing.T) {
	g := graph.Grid(8, 8)
	nw := faultyNet(g, 5, faultinject.Spec{FlakyLinkProb: 1, FlakyDropProb: 1})
	var sub graph.Induced
	large := []*graph.PartTree{graph.BFSTree(g, 0), graph.BFSTree(g, 27)}
	small := []*graph.PartTree{sub.Tree(g, []graph.NodeID{0, 1, 2, 10}, 0)}
	larger := []*graph.PartTree{graph.BFSTree(g, 0), graph.BFSTree(g, 63), graph.BFSTree(g, 27)}
	st := &nw.scr.sched
	links := []int{}
	for i, trees := range [][]*graph.PartTree{large, small, larger} {
		s := mustSet(t, g, trees...)
		newTreeSched(nw, s.edges)
		if i > 0 {
			assertStoreEmpty(t, st, i)
		}
		if _, err := convergecast(nw, trees, func(int, graph.NodeID) Word { return 1 }, AggSum); err == nil {
			t.Fatalf("schedule %d: a convergecast over links that drop everything completed", i)
		}
		if st.set.n == 0 {
			t.Fatalf("schedule %d: the abandoned schedule left nothing queued; the test would not exercise the reset", i)
		}
		links = append(links, 2*len(s.edges))
	}
	if !(links[1] < links[0] && links[0] < links[2]) || len(st.fifo) != links[2] {
		t.Fatalf("the sets use %v links and the store holds %d; want small < large < larger, the store the largest", links, len(st.fifo))
	}
	newTreeSched(nw, everyEdge(g))
	assertStoreEmpty(t, st, 3)
}

// assertStoreEmpty fails unless every FIFO of the store is empty, every
// bit of its ordered set clear and every send free.
func assertStoreEmpty(t *testing.T, st *sendStore, schedule int) {
	t.Helper()
	for l, f := range st.fifo {
		if f != (fifo{}) {
			t.Fatalf("schedule %d: link %d still holds sends %d..%d", schedule, l, f.head, f.tail)
		}
	}
	for i, w := range st.set.words {
		if w != 0 {
			t.Fatalf("schedule %d: word %d of the set is %#x", schedule, i, w)
		}
	}
	for i, w := range st.set.sum {
		if w != 0 {
			t.Fatalf("schedule %d: summary word %d of the set is %#x", schedule, i, w)
		}
	}
	if st.set.n != 0 {
		t.Fatalf("schedule %d: the set counts %d members", schedule, st.set.n)
	}
	if len(st.sends) != 1 || st.free != 0 {
		t.Fatalf("schedule %d: the store holds %d sends and free list %d, want only the nil send", schedule, len(st.sends), st.free)
	}
}

// everyEdge is the link table of a schedule over every host edge of g:
// link l is directed edge l.
func everyEdge(g *graph.Graph) []int32 {
	edges := make([]int32, g.M())
	for i := range edges {
		edges[i] = int32(i)
	}
	return edges
}

// A compiled set's links name exactly the directed edges its trees use:
// its host edges ascend strictly (so ascending links are ascending
// directed edges) and each is some member's parent edge, every member's up
// link maps back to the child→parent directed edge and ParentEdge to the
// tree's parent edge, and c is the most trees on one directed edge.
// Random trees on plain graphs and on Ĝ_p, where they cross clique edges.
func TestTreeSetLinksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomConnected(8+rng.Intn(40), rng.Intn(30), 5, rng.Int63())
		if trial%2 == 1 {
			g = graph.Layers(g, 2+rng.Intn(5))
		}
		trees := randomTrees(rng, g, 1+rng.Intn(6))
		s := mustSet(t, g, trees...)
		for r := 1; r < len(s.edges); r++ {
			if s.edges[r] <= s.edges[r-1] {
				t.Fatalf("trial %d: host edges %d and %d out of order", trial, s.edges[r-1], s.edges[r])
			}
		}
		used := make([]bool, len(s.edges))
		load := map[int]int{}
		c := 1
		for k, tr := range trees {
			for i, v := range tr.Members {
				slot := s.First(k) + i
				if i == 0 {
					if s.ParentEdge(slot) != -1 {
						t.Fatalf("trial %d: root of tree %d has parent edge %d", trial, k, s.ParentEdge(slot))
					}
					continue
				}
				l := int(s.up[slot])
				de := 2*int(s.edges[l>>1]) | l&1
				if want := dirEdge(g, graph.EdgeID(tr.ParentEdge[i]), v); de != want {
					t.Fatalf("trial %d: slot %d's up link %d is directed edge %d, want %d", trial, slot, l, de, want)
				}
				if s.ParentEdge(slot) != graph.EdgeID(tr.ParentEdge[i]) {
					t.Fatalf("trial %d: slot %d's parent edge %d, want %d", trial, slot, s.ParentEdge(slot), tr.ParentEdge[i])
				}
				used[l>>1] = true
				load[de]++
				c = max(c, load[de])
			}
		}
		if i := slices.Index(used, false); i >= 0 {
			t.Fatalf("trial %d: host edge %d is no member's parent edge", trial, s.edges[i])
		}
		if s.c != c {
			t.Fatalf("trial %d: c = %d, want %d", trial, s.c, c)
		}
	}
}

// linkUses links directed edges of every magnitude, up to the 31 bits
// that take all four radix passes: its host edges are the uses' distinct
// edges in ascending order, each use's link maps back to its directed
// edge, and c is the most uses of one directed edge.
func TestLinkUsesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		bound := int64(1) << (1 + rng.Intn(31)) // directed edges below 2^1 .. 2^31
		want := make([]int32, n)
		de := make([]int32, n)
		for i := range de {
			if i > 0 && rng.Intn(3) == 0 {
				de[i] = de[rng.Intn(i)] // repeat an edge, sometimes its other direction
				de[i] ^= int32(rng.Intn(2))
			} else {
				de[i] = int32(rng.Int63n(bound))
			}
			want[i] = de[i]
		}
		uses := make([]int32, n)
		for i := range uses {
			uses[i] = int32(i)
		}
		edges, c := linkUses(de, uses, make([]int32, n))
		var hosts []int32
		count := map[int32]int{}
		wantC := 1
		for _, e := range want {
			hosts = append(hosts, e>>1)
			count[e]++
			wantC = max(wantC, count[e])
		}
		slices.Sort(hosts)
		if hosts = slices.Compact(hosts); !slices.Equal(edges, hosts) {
			t.Fatalf("trial %d: host edges %v, want %v", trial, edges, hosts)
		}
		for i, l := range de {
			if got := 2*edges[l>>1] | l&1; got != want[i] {
				t.Fatalf("trial %d: use %d got link %d, directed edge %d, want %d", trial, i, l, got, want[i])
			}
		}
		if c != wantC {
			t.Fatalf("trial %d: c = %d, want %d", trial, c, wantC)
		}
	}
}

// randomTrees returns k trees over g: BFS trees of induced connected
// member sets grown from random roots, so they overlap and share edges.
func randomTrees(rng *rand.Rand, g *graph.Graph, k int) []*graph.PartTree {
	var sub graph.Induced
	trees := make([]*graph.PartTree, k)
	for t := range trees {
		root := rng.Intn(g.N())
		members := []graph.NodeID{root}
		in := map[graph.NodeID]bool{root: true}
		for want := 1 + rng.Intn(g.N()); len(members) < want; {
			v := members[rng.Intn(len(members))]
			nb := g.Neighbors(v)
			u := nb[rng.Intn(len(nb))].To
			if !in[u] {
				in[u] = true
				members = append(members, u)
			}
			if rng.Intn(4*g.N()) == 0 {
				break
			}
		}
		trees[t] = sub.Tree(g, members, root)
	}
	return trees
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
		sched := newTreeSched(nw, everyEdge(g))
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
