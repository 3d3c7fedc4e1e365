package congest

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
)

func newNet(g *graph.Graph) *Network {
	return NewNetwork(g, Options{Seed: 1})
}

// mustSet compiles trees over g, failing the test on an error.
func mustSet(tb testing.TB, g *graph.Graph, trees ...*graph.PartTree) *TreeSet {
	tb.Helper()
	s, err := NewTreeSet(g, trees)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// convergecast runs the upward sweep body alone and returns the root
// totals: the first half of AggregateMany.
func convergecast(nw *Network, trees []*graph.PartTree, val func(int, graph.NodeID) Word, agg Agg) ([]Word, error) {
	s, err := NewTreeSet(nw.Graph(), trees)
	if err != nil {
		return nil, err
	}
	if err := nw.sweepFor(s); err != nil {
		return nil, err
	}
	nw.sweepUp(s, val, agg)
	return nw.rootTotals(s)
}

// broadcast runs the downward sweep body alone, every root sending its
// rootVal entry: the second half of AggregateMany, with given root values.
func broadcast(nw *Network, trees []*graph.PartTree, rootVal []Word, on func(int, graph.NodeID, Word)) error {
	s, err := NewTreeSet(nw.Graph(), trees)
	if err != nil {
		return err
	}
	if err := nw.sweepFor(s); err != nil {
		return err
	}
	return nw.sweepDown("broadcast", s, func(t int, _ Word) Word { return rootVal[t] }, nil,
		func(t, i int, w Word) { on(t, s.Node(i), w) })
}

func TestExchangeCostsOneRound(t *testing.T) {
	g := graph.Path(4)
	nw := newNet(g)
	got := make(map[graph.NodeID]Word)
	nw.Exchange(
		func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v * 10), true },
		func(v graph.NodeID, h graph.Half, w Word) { got[v] += w },
	)
	if nw.Rounds() != 1 {
		t.Fatalf("rounds=%d, want 1", nw.Rounds())
	}
	// Node 1 hears from 0 and 2: 0 + 20.
	if got[1] != 20 {
		t.Fatalf("node 1 received %d, want 20", got[1])
	}
	// 2*m messages: each of 3 edges in both directions.
	if nw.Metrics().Messages != 6 {
		t.Fatalf("messages=%d, want 6", nw.Metrics().Messages)
	}
}

func TestExchangeSelective(t *testing.T) {
	g := graph.Star(5)
	nw := newNet(g)
	count := 0
	nw.Exchange(
		func(v graph.NodeID, h graph.Half) (Word, bool) { return 7, v == 0 },
		func(v graph.NodeID, h graph.Half, w Word) { count++ },
	)
	if count != 4 {
		t.Fatalf("deliveries=%d, want 4 (center only)", count)
	}
	if nw.Metrics().Messages != 4 {
		t.Fatalf("messages=%d", nw.Metrics().Messages)
	}
}

func TestDistributedBFSCostsEccentricity(t *testing.T) {
	g := graph.Grid(4, 5)
	nw := newNet(g)
	res := nw.BFS(0)
	ref := graph.BFS(g, 0)
	for v := range ref.Dist {
		if res.Dist[v] != ref.Dist[v] {
			t.Fatalf("dist[%d]=%d, want %d", v, res.Dist[v], ref.Dist[v])
		}
	}
	// BFS floods one extra round past the last frontier.
	ecc := 7 // (4-1)+(5-1)
	if nw.Rounds() < ecc || nw.Rounds() > ecc+1 {
		t.Fatalf("rounds=%d, want ~%d", nw.Rounds(), ecc)
	}
}

func TestChargeRounds(t *testing.T) {
	nw := newNet(graph.Path(2))
	nw.ChargeRounds(10)
	nw.ChargeRounds(-5) // ignored
	if nw.Rounds() != 10 || nw.Metrics().Messages != 0 {
		t.Fatalf("rounds=%d messages=%d, want 10 and 0", nw.Rounds(), nw.Metrics().Messages)
	}
}

func TestConvergecastSingleTreeSum(t *testing.T) {
	g := graph.Path(8)
	nw := newNet(g)
	tr := graph.BFSTree(g, 0)
	out, err := convergecast(nw, []*graph.PartTree{tr},
		func(_ int, v graph.NodeID) Word { return Word(v) }, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 28 { // 0+...+7
		t.Fatalf("sum=%d, want 28", out[0])
	}
	// A path convergecast takes exactly height rounds.
	if nw.Rounds() != 7 {
		t.Fatalf("rounds=%d, want 7", nw.Rounds())
	}
}

func TestConvergecastSingletonTreeIsFree(t *testing.T) {
	g := graph.Path(3)
	nw := newNet(g)
	tr := new(graph.Induced).Tree(g, []graph.NodeID{1}, 1)
	out, err := convergecast(nw, []*graph.PartTree{tr},
		func(_ int, v graph.NodeID) Word { return 42 }, AggMin)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 42 || nw.Rounds() != 0 {
		t.Fatalf("out=%d rounds=%d", out[0], nw.Rounds())
	}
}

func TestConvergecastSharedEdgesQueue(t *testing.T) {
	// k trees all containing the same 2-node path: the shared edge must
	// serialize, so rounds >= k.
	g := graph.Path(2)
	nw := newNet(g)
	const k = 5
	trees := make([]*graph.PartTree, k)
	for i := range trees {
		trees[i] = graph.BFSTree(g, 0)
	}
	out, err := convergecast(nw, trees,
		func(t int, v graph.NodeID) Word { return Word(t + int(v)) }, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range out {
		if w != Word(i)+Word(i)+1 {
			t.Fatalf("tree %d sum=%d", i, w)
		}
	}
	if nw.Rounds() < k {
		t.Fatalf("rounds=%d; shared edge must serialize %d sends", nw.Rounds(), k)
	}
	if nw.Metrics().MaxEdgeLoad != k {
		t.Fatalf("max edge load=%d, want %d", nw.Metrics().MaxEdgeLoad, k)
	}
}

func TestBroadcastReachesEveryMember(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := newNet(g)
	tr := graph.BFSTree(g, 4)
	seen := make(map[graph.NodeID]Word)
	err := broadcast(nw, []*graph.PartTree{tr}, []Word{99},
		func(_ int, v graph.NodeID, w Word) { seen[v] = w })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 9 {
		t.Fatalf("reached %d nodes", len(seen))
	}
	for v, w := range seen {
		if w != 99 {
			t.Fatalf("node %d got %d", v, w)
		}
	}
	if h := int(slices.Max(tr.Depth)); nw.Rounds() != h {
		t.Fatalf("rounds=%d, want height %d", nw.Rounds(), h)
	}
}

func TestAggregateManyRoundTrip(t *testing.T) {
	g := graph.Grid(4, 4)
	nw := newNet(g)
	// Two disjoint parts: top two rows and bottom two rows.
	top := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	bot := []graph.NodeID{8, 9, 10, 11, 12, 13, 14, 15}
	var sub graph.Induced
	trees := []*graph.PartTree{sub.Tree(g, top, 0), sub.Tree(g, bot, 8)}
	out, err := nw.AggregateMany(mustSet(t, g, trees...),
		func(_ int, v graph.NodeID) Word { return Word(v) }, AggMax)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 7 || out[1] != 15 {
		t.Fatalf("out=%v", out)
	}
}

// Both halves refuse an empty tree collection before charging anything.
func TestTreeSweepsRejectNoTrees(t *testing.T) {
	nw := newNet(graph.Path(2))
	if err := broadcast(nw, nil, nil, nil); !errors.Is(err, ErrNoTrees) {
		t.Fatalf("broadcast of no trees: err=%v, want ErrNoTrees", err)
	}
	if _, err := nw.AggregateMany(nil, nil, AggSum); !errors.Is(err, ErrNoTrees) {
		t.Fatalf("AggregateMany of a nil set: err=%v, want ErrNoTrees", err)
	}
	if nw.Rounds() != 0 {
		t.Fatalf("refused calls charged %d rounds", nw.Rounds())
	}
}

// NewTreeSet rejects a collection no sweep could run: no trees, a tree
// with no members, and a member whose parent does not come before it in
// its tree (the root, member 0, alone has none).
func TestTreePrimitivesRejectMalformedTrees(t *testing.T) {
	g := graph.Path(4)
	orphan := graph.BFSTree(g, 0)
	orphan.Parent[2] = 3 // a parent listed after its child
	twoRoots := graph.BFSTree(g, 0)
	twoRoots.Parent[1] = -1
	rooted := graph.BFSTree(g, 0)
	rooted.Parent[0] = 1
	if _, err := NewTreeSet(g, nil); !errors.Is(err, ErrNoTrees) {
		t.Fatalf("no trees: err=%v, want ErrNoTrees", err)
	}
	for _, tc := range []struct {
		trees []*graph.PartTree
		want  string
	}{
		{[]*graph.PartTree{{}}, "congest: tree 0 has no members"},
		{[]*graph.PartTree{orphan}, "congest: member 2 of tree 0 has parent 3 outside the tree"},
		{[]*graph.PartTree{twoRoots}, "congest: member 1 of tree 0 has parent -1 outside the tree"},
		{[]*graph.PartTree{rooted}, "congest: member 0 of tree 0 has parent 1 outside the tree"},
		{[]*graph.PartTree{graph.BFSTree(g, 3), orphan}, "congest: member 2 of tree 1 has parent 3 outside the tree"},
	} {
		s, err := NewTreeSet(g, tc.trees)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("err=%v, want %q", err, tc.want)
		}
		if s != nil {
			t.Fatal("a rejected collection returned a set")
		}
	}
}

// A set compiled for one graph is refused by a network over another, even
// an identical one, before anything is charged: its directed edges name
// links of its own graph.
func TestTreeSetForeignGraph(t *testing.T) {
	g, other := graph.Grid(3, 3), graph.Grid(3, 3)
	s := mustSet(t, g, graph.BFSTree(g, 0), graph.BFSTree(g, 8))
	nw := newNet(other)
	if _, err := nw.AggregateMany(s, func(int, graph.NodeID) Word { return 1 }, AggSum); !errors.Is(err, errForeignSet) {
		t.Fatalf("AggregateMany: err=%v, want %v", err, errForeignSet)
	}
	nop := func(int, int, Word) {}
	if err := nw.UpDownMany(s, func(int, graph.NodeID) Word { return 1 }, AggSum,
		func(int, Word) Word { return 0 }, nil, nop); !errors.Is(err, errForeignSet) {
		t.Fatalf("UpDownMany: err=%v, want %v", err, errForeignSet)
	}
	if m := nw.Metrics(); m != (Metrics{}) {
		t.Fatalf("a refused set was charged %+v", m)
	}
	// The same set runs on a network over its own graph.
	if _, err := newNet(g).AggregateMany(s, func(int, graph.NodeID) Word { return 1 }, AggSum); err != nil {
		t.Fatal(err)
	}
}

func TestRouteManySinglePath(t *testing.T) {
	g := graph.Path(5)
	nw := newNet(g)
	// Edge IDs on a path are 0..3 in order.
	arr, err := nw.RouteMany([]Packet{{Start: 0, Edges: []graph.EdgeID{0, 1, 2, 3}, Payload: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if arr[0] != 4 {
		t.Fatalf("arrival=%d, want 4", arr[0])
	}
	if nw.Rounds() != 4 {
		t.Fatalf("rounds=%d", nw.Rounds())
	}
}

func TestRouteManyCongestionSerializes(t *testing.T) {
	g := graph.Path(2)
	nw := NewNetwork(g, Options{Seed: 3, DisableRandomDelays: true})
	pkts := make([]Packet, 6)
	for i := range pkts {
		pkts[i] = Packet{Start: 0, Edges: []graph.EdgeID{0}}
	}
	arr, err := nw.RouteMany(pkts)
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, a := range arr {
		if a > max {
			max = a
		}
	}
	if max != 6 {
		t.Fatalf("makespan=%d, want 6", max)
	}
}

func TestRouteManyEmptyPathAndBadPath(t *testing.T) {
	g := graph.Path(3)
	nw := newNet(g)
	arr, err := nw.RouteMany([]Packet{{Start: 1}})
	if err != nil || arr[0] != 0 {
		t.Fatalf("empty path: arr=%v err=%v", arr, err)
	}
	// Edge 1 joins nodes 1-2; starting at 0 it is not incident.
	if _, err := nw.RouteMany([]Packet{{Start: 0, Edges: []graph.EdgeID{1}}}); err == nil {
		t.Fatal("want error for non-incident path")
	}
}

func TestRandomDelaysAblation(t *testing.T) {
	// With many trees over a shared path, random delays must not change
	// correctness, only scheduling.
	g := graph.Path(10)
	for _, disable := range []bool{false, true} {
		nw := NewNetwork(g, Options{Seed: 7, DisableRandomDelays: disable})
		var trees []*graph.PartTree
		for i := 0; i < 8; i++ {
			trees = append(trees, graph.BFSTree(g, 0))
		}
		out, err := convergecast(nw, trees,
			func(_ int, v graph.NodeID) Word { return 1 }, AggSum)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range out {
			if w != 10 {
				t.Fatalf("disable=%v: count=%d, want 10", disable, w)
			}
		}
	}
}

func TestDeterministicRounds(t *testing.T) {
	run := func() (int, []Word) {
		g := graph.Grid(5, 5)
		nw := NewNetwork(g, Options{Seed: 11})
		trees := []*graph.PartTree{
			graph.BFSTree(g, 0),
			graph.BFSTree(g, 24),
			graph.BFSTree(g, 12),
		}
		out, err := nw.AggregateMany(mustSet(t, g, trees...),
			func(t int, v graph.NodeID) Word { return Word(v * (t + 1)) }, AggMax)
		if err != nil {
			t.Fatal(err)
		}
		return nw.Rounds(), out
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 {
		t.Fatalf("nondeterministic rounds: %d vs %d", r1, r2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("nondeterministic output %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

// Property: convergecast sum over a BFS tree of a random connected graph
// equals the plain sum of values, and rounds are at least the tree height.
func TestConvergecastSumProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 2
		g := graph.RandomConnected(n, n/2, 1, seed)
		nw := NewNetwork(g, Options{Seed: seed})
		tr := graph.BFSTree(g, 0)
		out, err := convergecast(nw, []*graph.PartTree{tr},
			func(_ int, v graph.NodeID) Word { return Word(v) + 1 }, AggSum)
		if err != nil {
			return false
		}
		want := Word(n*(n+1)) / 2
		return out[0] == want && nw.Rounds() >= int(slices.Max(tr.Depth))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: routed packets always arrive, and the makespan is at least
// max(dilation, congestion) and at most dilation + total excess congestion.
func TestRouteBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Grid(4, 4)
		nw := NewNetwork(g, Options{Seed: seed})
		// All packets traverse the top row left to right: edge IDs of the
		// top row are the "right" edges of row 0.
		var rowEdges []graph.EdgeID
		v := 0
		for c := 0; c+1 < 4; c++ {
			for _, h := range g.Neighbors(v) {
				if h.To == v+1 {
					rowEdges = append(rowEdges, h.Edge)
					break
				}
			}
			v++
		}
		k := 5
		pkts := make([]Packet, k)
		for i := range pkts {
			pkts[i] = Packet{Start: 0, Edges: rowEdges}
		}
		arr, err := nw.RouteMany(pkts)
		if err != nil {
			return false
		}
		makespan := 0
		for _, a := range arr {
			if a > makespan {
				makespan = a
			}
		}
		dilation := len(rowEdges)
		congestion := k
		lower := dilation
		if congestion > lower {
			lower = congestion
		}
		// Upper bound: full serialization plus the random start delays
		// (each at most congestion-1).
		return makespan >= lower && makespan <= dilation+2*congestion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// parallelPair returns two nodes joined by two parallel unit edges.
func parallelPair(t *testing.T) *graph.Graph {
	g, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 0, V: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExchangeParallelEdges(t *testing.T) {
	// Parallel edges each carry an independent message per round (the
	// multigraph convention Lemma 17 needs).
	nw := newNet(parallelPair(t))
	var got []Word
	nw.Exchange(
		func(v graph.NodeID, h graph.Half) (Word, bool) {
			return Word(h.Edge), v == 0
		},
		func(v graph.NodeID, h graph.Half, w Word) { got = append(got, w) },
	)
	if len(got) != 2 {
		t.Fatalf("deliveries=%d, want 2 (one per parallel edge)", len(got))
	}
	if got[0] == got[1] {
		t.Fatal("parallel edges must be distinguishable")
	}
}

func TestRouteManyParallelEdges(t *testing.T) {
	nw := NewNetwork(parallelPair(t), Options{Seed: 1, DisableRandomDelays: true})
	arr, err := nw.RouteMany([]Packet{
		{Start: 0, Edges: []graph.EdgeID{0}},
		{Start: 0, Edges: []graph.EdgeID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct parallel edges do not contend: both arrive in round 1.
	if arr[0] != 1 || arr[1] != 1 {
		t.Fatalf("arrivals=%v, want both 1", arr)
	}
}
