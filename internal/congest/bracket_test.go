package congest

import (
	"math/rand"
	"slices"
	"testing"

	"distlap/internal/graph"
	"distlap/internal/seedderive"
)

// treeBracket returns the two parameters the tree scheduler's round count
// is bracketed by: c, the largest number of trees whose parent edges use
// one directed edge (child to parent), and h, the largest tree height.
// It counts from the trees alone, independently of the engine's own
// congestion count.
func treeBracket(trees []*graph.PartTree) (c, h int) {
	use := map[[2]int]int{} // (parent edge, child) -> trees using it
	for _, tr := range trees {
		for i, v := range tr.Members {
			if tr.Parent[i] == -1 {
				continue
			}
			k := [2]int{int(tr.ParentEdge[i]), v}
			use[k]++
			c = max(c, use[k])
		}
		h = max(h, int(slices.Max(tr.Depth)))
	}
	return c, h
}

// bracketTrees draws a tree family over g: k BFS balls of radius 1–4
// around random roots (so the trees overlap), or, for the other half of
// the seeds, one BFS tree repeated k times (the shape of a batched
// GlobalSums).
func bracketTrees(g *graph.Graph, rng *rand.Rand, balls bool) []*graph.PartTree {
	k := 1 + rng.Intn(8)
	trees := make([]*graph.PartTree, 0, k)
	if !balls {
		tr := graph.BFSTree(g, rng.Intn(g.N()))
		for i := 0; i < k; i++ {
			trees = append(trees, tr)
		}
		return trees
	}
	var sub graph.Induced
	for i := 0; i < k; i++ {
		root := rng.Intn(g.N())
		radius := 1 + rng.Intn(4)
		dist := graph.BFS(g, root).Dist
		var members []graph.NodeID
		for v, d := range dist {
			if d >= 0 && d <= radius {
				members = append(members, v)
			}
		}
		trees = append(trees, sub.Tree(g, members, root))
	}
	return trees
}

// TestTreePrimitiveRoundBracket pins the store-and-forward scheduler's
// round count between the bounds its FIFO discipline guarantees. With c
// and h as in treeBracket, every one-directional sweep needs at least
// max(c, h) rounds (c words queue on one link, and the tallest tree is a
// chain of h hops) and at most c·h rounds with random delays off (a word
// waits behind at most c−1 others at each of at most h hops), or
// (c−1) + c·h with delays drawn from [0, c). AggregateMany and UpDownMany
// are one pass each way, so they must stay within twice the bracket. Half
// of the 300 random connected graphs run with delays off, which is what
// catches a scheduler that sends more than one word per link per round.
//
// Each graph runs three tree families through both sweep bodies and both
// primitives on one network, and every compiled set's congestion and
// height must equal treeBracket's count (c at least 1): a set that
// miscounted c would skew the delays, and one that miscounted h the
// checked mode's bracket.
func TestTreePrimitiveRoundBracket(t *testing.T) {
	const base = int64(0xB7AC)
	for i := int64(0); i < 300; i++ {
		seed := seedderive.Derive(base, "round-bracket", i)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.RandomConnected(n, rng.Intn(n), 1, seed)
		noDelays := (i/2)%2 == 0
		nw := NewNetwork(g, Options{Seed: seed, DisableRandomDelays: noDelays})
		for f := int64(0); f < 3; f++ {
			trees := bracketTrees(g, rng, (i+f)%2 == 0)
			c, h := treeBracket(trees)
			set := mustSet(t, g, trees...)
			if set.c != max(c, 1) || set.height() != h {
				t.Fatalf("seed %d family %d: the set counts c=%d h=%d, want c=%d h=%d",
					seed, f, set.c, set.height(), max(c, 1), h)
			}
			lo, hi := max(c, h), (c-1)+c*h
			if noDelays {
				hi = c * h
			}
			one := func(int, graph.NodeID) Word { return 1 }
			total := func(_ int, w Word) Word { return w }
			forward := func(_, _, _ int, w, _ Word) Word { return w }
			nop := func(int, int, Word) {}

			primitives := []struct {
				name   string
				lo, hi int
				run    func() error
			}{
				{"convergecast", lo, hi, func() error {
					if err := nw.sweepFor(set); err != nil {
						return err
					}
					nw.sweepUp(set, one, AggSum)
					_, err := nw.rootTotals(set)
					return err
				}},
				{"broadcast", lo, hi, func() error {
					if err := nw.sweepFor(set); err != nil {
						return err
					}
					return nw.sweepDown("broadcast", set, total, nil, nop)
				}},
				{"AggregateMany", 2 * lo, 2 * hi, func() error {
					_, err := nw.AggregateMany(set, one, AggSum)
					return err
				}},
				{"UpDownMany", 2 * lo, 2 * hi, func() error {
					return nw.UpDownMany(set, one, AggSum, total, forward, nop)
				}},
			}
			for _, p := range primitives {
				before := nw.Rounds()
				if err := p.run(); err != nil {
					t.Fatalf("seed %d family %d: %s: %v", seed, f, p.name, err)
				}
				if r := nw.Rounds() - before; r < p.lo || r > p.hi {
					t.Fatalf("seed %d family %d (n=%d, %d trees, c=%d, h=%d, delays off=%v): %s took %d rounds, want [%d, %d]",
						seed, f, n, len(trees), c, h, noDelays, p.name, r, p.lo, p.hi)
				}
			}
		}
	}
}
