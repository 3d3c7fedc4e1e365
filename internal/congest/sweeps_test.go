package congest

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
)

func TestFloatWordRoundtrip(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1.5, -math.Pi, 1e-308, 1e308, math.Inf(1)} {
		got := WordFloat(FloatWord(f))
		if got != f && !(math.IsNaN(got) && math.IsNaN(f)) {
			t.Fatalf("%v -> %v", f, got)
		}
	}
	if !math.IsNaN(WordFloat(FloatWord(math.NaN()))) {
		t.Fatal("NaN roundtrip")
	}
}

// subtreeSums runs UpDownMany with a down transform that hands every
// child its own subtree aggregate, so on reports each member's subtree
// sum (the root's being its total).
func subtreeSums(nw *Network, trees []*graph.PartTree, val func(t int, v graph.NodeID) Word) ([]map[graph.NodeID]Word, error) {
	sums := make([]map[graph.NodeID]Word, len(trees))
	for t := range sums {
		sums[t] = map[graph.NodeID]Word{}
	}
	s, err := NewTreeSet(nw.Graph(), trees)
	if err != nil {
		return nil, err
	}
	err = nw.UpDownMany(s, val, AggSum,
		func(_ int, total Word) Word { return total },
		func(_, _, _ int, _, childSub Word) Word { return childSub },
		func(t, i int, w Word) { sums[t][s.Node(i)] = w })
	return sums, err
}

func TestUpDownManySubtreeSums(t *testing.T) {
	// Path rooted at 0: subtree of node v is {v, ..., n-1}.
	g := graph.Path(6)
	nw := newNet(g)
	tr := graph.BFSTree(g, 0)
	sums, err := subtreeSums(nw, []*graph.PartTree{tr.Part()},
		func(_ int, v graph.NodeID) Word { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if sums[0][v] != Word(6-v) {
			t.Fatalf("subtree[%d]=%d, want %d", v, sums[0][v], 6-v)
		}
	}
}

func TestUpDownManyMultipleOverlappingTrees(t *testing.T) {
	g := graph.Grid(3, 3)
	nw := newNet(g)
	trees := []*graph.PartTree{graph.BFSTree(g, 0).Part(), graph.BFSTree(g, 8).Part()}
	sums, err := subtreeSums(nw, trees,
		func(t int, v graph.NodeID) Word { return Word(v) })
	if err != nil {
		t.Fatal(err)
	}
	if sums[0][0] != 36 || sums[1][8] != 36 {
		t.Fatalf("roots=%d,%d, want 36,36", sums[0][0], sums[1][8])
	}
	if len(sums[0]) != 9 || len(sums[1]) != 9 {
		t.Fatal("incomplete subtree maps")
	}
}

func TestUpDownManyPrefixTransform(t *testing.T) {
	// Depth computation via transform: child value = parent value + 1.
	g := graph.Grid(3, 4)
	nw := newNet(g)
	tr := graph.BFSTree(g, 0)
	s := mustSet(t, g, tr.Part())
	depths := make(map[graph.NodeID]Word)
	err := nw.UpDownMany(s,
		func(int, graph.NodeID) Word { return 0 }, AggSum,
		func(int, Word) Word { return 0 },
		func(_, _, _ int, parentVal, _ Word) Word { return parentVal + 1 },
		func(_, i int, w Word) { depths[s.Node(i)] = w })
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.Members {
		if depths[v] != Word(tr.Depth[v]) {
			t.Fatalf("depth[%d]=%d, want %d", v, depths[v], tr.Depth[v])
		}
	}
	// One pass up and one down, each as long as the tree is tall.
	if h := tr.Part().Height(); nw.Rounds() != 2*h {
		t.Fatalf("rounds=%d, want twice the height %d", nw.Rounds(), h)
	}
}

// The convergecast that every member must finish is UpDownMany's upward
// pass; an empty tree collection is rejected before it starts, whether
// at compile time or as a nil set.
func TestConvergecastAllNoTrees(t *testing.T) {
	nw := newNet(graph.Path(2))
	if _, err := NewTreeSet(nw.Graph(), nil); !errors.Is(err, ErrNoTrees) {
		t.Fatalf("NewTreeSet: err=%v, want ErrNoTrees", err)
	}
	if err := nw.UpDownMany(nil, nil, AggSum, nil, nil, nil); !errors.Is(err, ErrNoTrees) {
		t.Fatalf("err=%v, want ErrNoTrees", err)
	}
	if nw.Rounds() != 0 {
		t.Fatalf("an empty tree collection charged %d rounds", nw.Rounds())
	}
}

// crashPath2 returns a network on the two-node path whose plan crashes
// both nodes, each in round 1 or 2 (CrashWindow 2). It takes the first
// seed whose plan has node 0 down in round 1 iff root0 and node 1 down in
// round 1 iff child1.
func crashPath2(t *testing.T, root0, child1 bool) *Network {
	t.Helper()
	g := graph.Path(2)
	for seed := int64(1); seed <= 64; seed++ {
		p := faultinject.MustNew(faultinject.Spec{Seed: seed, CrashProb: 1, CrashWindow: 2})
		if p.Crashed(0, 1) == root0 && p.Crashed(1, 1) == child1 {
			return NewNetwork(g, Options{Seed: seed, Faults: p})
		}
	}
	t.Fatalf("no seed in 1..64 crashes node 0 in round 1 = %v and node 1 = %v", root0, child1)
	return nil
}

// Each downward pass checks its own receipts and names itself: a member
// the down half never reaches fails the call even when the upward pass
// finished, and the shared body reports "broadcast" or "down-sweep".
func TestDownSweepManyErrors(t *testing.T) {
	tr := graph.BFSTree(graph.Path(2), 0).Part()
	var heard []graph.NodeID
	on := func(_ int, v graph.NodeID, _ Word) { heard = append(heard, v) }

	// Both nodes live through round 1, which carries the child's value up,
	// and are down in round 2, which would carry the root's word back.
	nw := crashPath2(t, false, false)
	s := mustSet(t, nw.Graph(), tr)
	err := nw.UpDownMany(s,
		func(int, graph.NodeID) Word { return 1 }, AggSum,
		func(_ int, total Word) Word { return total },
		func(_, _, _ int, parentVal, _ Word) Word { return parentVal },
		func(t, i int, w Word) { on(t, s.Node(i), w) })
	if want := "down-sweep of tree 0 reached 1 of 2 members"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err=%v, want one containing %q", err, want)
	}
	if nw.Rounds() != 2 {
		t.Fatalf("rounds=%d, want 2 (one up, one down)", nw.Rounds())
	}
	if len(heard) != 1 || heard[0] != 0 {
		t.Fatalf("on fired at %v, want only the root 0", heard)
	}

	// The child is down from round 1, so the broadcast's one word dies.
	heard = heard[:0]
	nw = crashPath2(t, false, true)
	err = broadcast(nw, []*graph.PartTree{tr}, []Word{7}, on)
	if want := "broadcast of tree 0 reached 1 of 2 members"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err=%v, want one containing %q", err, want)
	}
	if len(heard) != 1 || heard[0] != 0 {
		t.Fatalf("on fired at %v, want only the root 0", heard)
	}
}

// Property: tree-Laplacian solve via UpDownMany satisfies L_T y = r on
// random trees (the preconditioner identity used by internal/core).
func TestTreeSolveIdentityProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%20) + 3
		g := graph.RandomConnected(n, 0, 5, seed) // a random weighted tree
		nw := NewNetwork(g, Options{Seed: seed})
		tr := graph.BFSTree(g, 0)
		// Mean-zero residual.
		r := make([]float64, n)
		for v := range r {
			r[v] = float64((v*7)%5) - 2
		}
		mean := 0.0
		for _, x := range r {
			mean += x
		}
		mean /= float64(n)
		for v := range r {
			r[v] -= mean
		}
		fsum := func(a, b Word) Word { return FloatWord(WordFloat(a) + WordFloat(b)) }
		y := make([]float64, n)
		s, err := NewTreeSet(g, []*graph.PartTree{tr.Part()})
		if err != nil {
			return false
		}
		err = nw.UpDownMany(s,
			func(_ int, v graph.NodeID) Word { return FloatWord(r[v]) }, fsum,
			func(int, Word) Word { return FloatWord(0) },
			func(_, _, child int, parentVal, childSub Word) Word {
				w := float64(g.Edge(s.ParentEdge(child)).Weight)
				return FloatWord(WordFloat(parentVal) + WordFloat(childSub)/w)
			},
			func(_, i int, w Word) { y[s.Node(i)] = WordFloat(w) })
		if err != nil {
			return false
		}
		// Check L_T y == r.
		ly := make([]float64, n)
		for _, e := range g.Edges() {
			w := float64(e.Weight)
			d := y[e.U] - y[e.V]
			ly[e.U] += w * d
			ly[e.V] -= w * d
		}
		for v := range r {
			if math.Abs(ly[v]-r[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
