package layered

import (
	"errors"
	"fmt"
	"math/rand"
)

// Multigraph is the minimal multigraph view edge-colored by Lemma 17:
// a node count plus an edge list (parallel edges allowed, each carrying an
// independent message per round as the paper notes).
type Multigraph struct {
	N     int
	Edges [][2]int
}

// MaxDegree returns the maximum endpoint multiplicity.
func (m *Multigraph) MaxDegree() int {
	deg := make([]int, m.N)
	max := 0
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
		if deg[e[0]] > max {
			max = deg[e[0]]
		}
		if deg[e[1]] > max {
			max = deg[e[1]]
		}
	}
	return max
}

// ColoringResult is a proper edge coloring plus the number of distributed
// rounds the randomized procedure took.
type ColoringResult struct {
	Colors  []int // per edge
	Palette int   // number of colors made available (O(Δ))
	Rounds  int   // distributed rounds consumed (O(log n) w.h.p.)
}

// ErrColoringStuck is returned if the randomized coloring fails to converge
// (probability vanishing in the retry budget).
var ErrColoringStuck = errors.New("layered: edge coloring did not converge")

// ColorEdges properly edge-colors the multigraph with a palette of size
// 4·Δ using the folklore randomized procedure of Lemma 17 ([30]): in each
// round every uncolored edge proposes a uniformly random palette color and
// keeps it if no incident edge (colored or proposing) holds the same color.
// Each round is O(1) CONGEST rounds; the procedure finishes in O(log n)
// rounds w.h.p. The returned Rounds is the number of proposal rounds.
func ColorEdges(m *Multigraph, seed int64) (*ColoringResult, error) {
	delta := m.MaxDegree()
	if delta == 0 {
		return &ColoringResult{Colors: make([]int, len(m.Edges)), Palette: 1}, nil
	}
	palette := 4 * delta
	rng := rand.New(rand.NewSource(seed))
	colors := make([]int, len(m.Edges))
	for i := range colors {
		colors[i] = -1
	}
	// fixed[node*palette+color] is true once an incident edge holds that
	// color; count[node*palette+color] counts a round's proposals there and
	// is zero again after the round.
	fixed := make([]bool, m.N*palette)
	count := make([]int32, m.N*palette)
	proposal := make([]int, len(m.Edges)) // a round's proposed color per edge
	uncolored := make([]int, len(m.Edges))
	for i := range uncolored {
		uncolored[i] = i
	}
	next := make([]int, 0, len(m.Edges))
	rounds := 0
	maxRounds := 64 * (log2(len(m.Edges)+m.N) + 4)
	for len(uncolored) > 0 {
		if rounds >= maxRounds {
			return nil, fmt.Errorf("%w after %d rounds (%d edges left)",
				ErrColoringStuck, rounds, len(uncolored))
		}
		rounds++
		// Propose.
		for _, e := range uncolored {
			c := rng.Intn(palette)
			proposal[e] = c
			count[m.Edges[e][0]*palette+c]++
			count[m.Edges[e][1]*palette+c]++
		}
		// Keep conflict-free proposals.
		kept := next[:0]
		for _, e := range uncolored {
			c := proposal[e]
			u, v := m.Edges[e][0]*palette+c, m.Edges[e][1]*palette+c
			if !fixed[u] && !fixed[v] && count[u] == 1 && count[v] == 1 {
				colors[e] = c
				fixed[u] = true
				fixed[v] = true
			} else {
				kept = append(kept, e)
			}
		}
		for _, e := range uncolored {
			c := proposal[e]
			count[m.Edges[e][0]*palette+c] = 0
			count[m.Edges[e][1]*palette+c] = 0
		}
		uncolored, next = kept, uncolored
	}
	return &ColoringResult{Colors: colors, Palette: palette, Rounds: rounds}, nil
}

// VerifyColoring checks that colors is a proper edge coloring of m.
//
//distlint:allow testonly proper-coloring oracle the distributed edge-coloring tests check against
func VerifyColoring(m *Multigraph, colors []int) error {
	if len(colors) != len(m.Edges) {
		return fmt.Errorf("layered: %d colors for %d edges", len(colors), len(m.Edges))
	}
	seen := make(map[[2]int]int) // (node, color) -> edge+1
	for e, c := range colors {
		if c < 0 {
			return fmt.Errorf("layered: edge %d uncolored", e)
		}
		for _, v := range m.Edges[e] {
			key := [2]int{v, c}
			if prev, ok := seen[key]; ok {
				return fmt.Errorf("layered: edges %d and %d share color %d at node %d",
					prev-1, e, c, v)
			}
			seen[key] = e + 1
		}
	}
	return nil
}

func log2(n int) int {
	k := 0
	for p := 1; p < n; p *= 2 {
		k++
	}
	return k
}
