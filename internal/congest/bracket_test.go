package congest

import (
	"math/rand"
	"testing"

	"distlap/internal/graph"
	"distlap/internal/seedderive"
)

// treeBracket returns the two parameters the tree scheduler's round count
// is bracketed by: c, the largest number of trees whose parent edges use
// one directed edge (child to parent), and h, the largest tree height.
// It counts from the trees alone, independently of the engine's own
// congestion count.
func treeBracket(trees []*graph.Tree) (c, h int) {
	use := map[[2]int]int{} // (parent edge, child) -> trees using it
	for _, tr := range trees {
		for _, v := range tr.Members {
			if tr.Parent[v] == -1 {
				continue
			}
			k := [2]int{tr.ParentEdge[v], v}
			use[k]++
			c = max(c, use[k])
		}
		h = max(h, tr.Height())
	}
	return c, h
}

// bracketTrees draws a tree family over g: k BFS balls of radius 1–4
// around random roots (so the trees overlap), or, for the other half of
// the seeds, one BFS tree repeated k times (the shape of a batched
// GlobalSums).
func bracketTrees(g *graph.Graph, rng *rand.Rand, balls bool) []*graph.Tree {
	k := 1 + rng.Intn(8)
	trees := make([]*graph.Tree, 0, k)
	if !balls {
		tr := graph.BFSTree(g, rng.Intn(g.N()))
		for i := 0; i < k; i++ {
			trees = append(trees, tr)
		}
		return trees
	}
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
		trees = append(trees, graph.BFSTreeOfSubgraph(g, members, root))
	}
	return trees
}

// TestTreePrimitiveRoundBracket pins the store-and-forward scheduler's
// round count between the bounds its FIFO discipline guarantees. With c
// and h as in treeBracket, every one-directional primitive needs at least
// max(c, h) rounds (c words queue on one link, and the tallest tree is a
// chain of h hops) and at most c·h rounds with random delays off (a word
// waits behind at most c−1 others at each of at most h hops), or
// (c−1) + c·h with delays drawn from [0, c). AggregateMany is one pass
// each way, so it must stay within twice the bracket. Half of the 300
// random connected graphs run with delays off, which is what catches a
// scheduler that sends more than one word per link per round.
func TestTreePrimitiveRoundBracket(t *testing.T) {
	const base = int64(0xB7AC)
	for i := int64(0); i < 300; i++ {
		seed := seedderive.Derive(base, "round-bracket", i)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.RandomConnected(n, rng.Intn(n), 1, seed)
		trees := bracketTrees(g, rng, i%2 == 0)
		noDelays := (i/2)%2 == 0
		c, h := treeBracket(trees)
		lo, hi := max(c, h), (c-1)+c*h
		if noDelays {
			hi = c * h
		}
		net := func() *Network {
			return NewNetwork(g, Options{Seed: seed, DisableRandomDelays: noDelays})
		}
		one := func(int, graph.NodeID) Word { return 1 }
		forward := func(_ int, _, _ graph.NodeID, w Word) Word { return w }
		nop := func(int, graph.NodeID, Word) {}
		roots := make([]Word, len(trees))

		primitives := []struct {
			name   string
			lo, hi int
			run    func(*Network) error
		}{
			{"ConvergecastMany", lo, hi, func(nw *Network) error {
				_, err := nw.ConvergecastMany(trees, one, AggSum)
				return err
			}},
			{"ConvergecastAll", lo, hi, func(nw *Network) error {
				_, _, err := nw.ConvergecastAll(trees, one, AggSum)
				return err
			}},
			{"BroadcastMany", lo, hi, func(nw *Network) error {
				return nw.BroadcastMany(trees, roots, nop)
			}},
			{"DownSweepMany", lo, hi, func(nw *Network) error {
				return nw.DownSweepMany(trees, roots, forward, nop)
			}},
			{"AggregateMany", 2 * lo, 2 * hi, func(nw *Network) error {
				_, err := nw.AggregateMany(trees, one, AggSum)
				return err
			}},
		}
		for _, p := range primitives {
			nw := net()
			if err := p.run(nw); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, p.name, err)
			}
			if r := nw.Rounds(); r < p.lo || r > p.hi {
				t.Fatalf("seed %d (n=%d, %d trees, c=%d, h=%d, delays off=%v): %s took %d rounds, want [%d, %d]",
					seed, n, len(trees), c, h, noDelays, p.name, r, p.lo, p.hi)
			}
		}
	}
}
