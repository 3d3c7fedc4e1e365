package shortcut

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"distlap/internal/graph"
	"distlap/internal/layered"
)

func gridRows(rows, cols int) [][]graph.NodeID {
	parts := make([][]graph.NodeID, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			parts[r] = append(parts[r], graph.GridID(cols, r, c))
		}
	}
	return parts
}

func TestValidateParts(t *testing.T) {
	g := graph.Grid(3, 3)
	if err := ValidateParts(g, gridRows(3, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateParts(g, [][]graph.NodeID{{}}); !errors.Is(err, ErrEmptyPart) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateParts(g, [][]graph.NodeID{{0, 8}}); !errors.Is(err, ErrPartDisconnected) {
		t.Fatalf("err=%v", err)
	}
	if err := ValidateParts(g, [][]graph.NodeID{{0, 99}}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("err=%v", err)
	}
}

func TestCongestion(t *testing.T) {
	parts := [][]graph.NodeID{{0, 1}, {1, 2}, {1, 3}, {4}}
	if c := Congestion(parts); c != 3 {
		t.Fatalf("congestion=%d, want 3", c)
	}
	if Congestion(nil) != 0 {
		t.Fatal("empty congestion")
	}
}

func TestTrivialBuilderOnGridRows(t *testing.T) {
	g := graph.Grid(4, 6)
	s, err := buildTrivial(NewSkeleton(g), gridRows(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if s.Congestion != 0 {
		t.Fatalf("congestion=%d", s.Congestion)
	}
	if s.Dilation != 5 { // row of 6 nodes has diameter 5
		t.Fatalf("dilation=%d, want 5", s.Dilation)
	}
	if s.Quality() != 5 {
		t.Fatalf("quality=%d", s.Quality())
	}
}

func TestVerifyRecomputesCertificates(t *testing.T) {
	g := graph.Path(6)
	parts := [][]graph.NodeID{{0, 1, 2}, {3, 4, 5}}
	s := &Shortcut{Parts: parts, Extra: make([][]graph.EdgeID, 2), Congestion: 99, Dilation: 99}
	if err := Verify(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Congestion != 0 || s.Dilation != 2 {
		t.Fatalf("c=%d d=%d", s.Congestion, s.Dilation)
	}
}

func TestVerifyErrors(t *testing.T) {
	g := graph.Path(4)
	s := &Shortcut{Parts: [][]graph.NodeID{{0, 1}}, Extra: nil}
	if err := Verify(g, s); !errors.Is(err, ErrPartsMismatch) {
		t.Fatalf("err=%v", err)
	}
	s = &Shortcut{
		Parts: [][]graph.NodeID{{0, 1}},
		Extra: [][]graph.EdgeID{{42}},
	}
	if err := Verify(g, s); err == nil {
		t.Fatal("want out-of-range edge error")
	}
}

func TestSteinerBuilderConnectsSplitParts(t *testing.T) {
	// On a star, the leaves {1,2} do not induce a connected subgraph, so
	// this is not a valid part; use a path where a part is spread out but
	// connected, and check Steiner shortcut shrinks nothing (already a
	// path). Then check a comb graph where the Steiner subtree helps.
	g := graph.Caterpillar(8, 1) // spine 0..7, leaf of spine i is 8+i
	// Part: the full spine (connected, diameter 7).
	spine := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	s, err := buildSteiner(NewSkeleton(g), [][]graph.NodeID{spine})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dilation > 7 {
		t.Fatalf("dilation=%d", s.Dilation)
	}
}

// bfsSteinerEdges returns the Steiner subtree edges of terminals in g's
// BFS tree from node 0.
func bfsSteinerEdges(g *graph.Graph, terminals []graph.NodeID) []graph.EdgeID {
	sk := NewSkeleton(g)
	sk.tree = graph.BFSTree(g, 0)
	sk.pos = make([]int32, g.N())
	sk.tree.IndexInto(sk.pos)
	return sk.steinerSubtreeEdges(terminals)
}

func TestSteinerSubtreePrunesAboveMeet(t *testing.T) {
	// Complete binary tree; terminals are two siblings deep in the tree.
	// The Steiner subtree must stop at their common parent, not reach the
	// root.
	g := graph.CompleteTree(2, 4) // 15 nodes, root 0
	// Nodes 7..14 are leaves; 7 and 8 share parent 3.
	edges := bfsSteinerEdges(g, []graph.NodeID{7, 8})
	if len(edges) != 2 {
		t.Fatalf("steiner edges=%d, want 2 (7-3 and 8-3)", len(edges))
	}
	for _, id := range edges {
		e := g.Edge(id)
		if e.U != 3 && e.V != 3 {
			t.Fatalf("edge %v not incident to meet node 3", e)
		}
	}
}

func TestSteinerSingletonTerminal(t *testing.T) {
	g := graph.Path(5)
	if edges := bfsSteinerEdges(g, []graph.NodeID{3}); edges != nil {
		t.Fatalf("singleton should need no edges, got %v", edges)
	}
}

func TestPortfolioPicksBest(t *testing.T) {
	g := graph.Grid(4, 4)
	parts := gridRows(4, 4)
	s, err := Build(NewSkeleton(g), parts)
	if err != nil {
		t.Fatal(err)
	}
	triv, _ := buildTrivial(NewSkeleton(g), parts)
	st, _ := buildSteiner(NewSkeleton(g), parts)
	want := triv.Quality()
	if st.Quality() < want {
		want = st.Quality()
	}
	if s.Quality() != want {
		t.Fatalf("portfolio quality %d, want min %d", s.Quality(), want)
	}
}

// TestCenterHeuristic checks the root that the Steiner-tree builder and
// CandidatePartitions take, graph.ApproxCenter: on a path, the middle node.
func TestCenterHeuristic(t *testing.T) {
	g := graph.Path(9)
	c := graph.ApproxCenter(g)
	if c != 4 {
		t.Fatalf("center of path = %d, want 4", c)
	}
}

func TestTreePartitionCoversAndConnected(t *testing.T) {
	g := graph.Grid(5, 5)
	parts := TreePartition(g, 5)
	seen := make(map[graph.NodeID]int)
	for _, p := range parts {
		for _, v := range p {
			seen[v]++
		}
	}
	if len(seen) != 25 {
		t.Fatalf("covered %d nodes", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d parts", v, c)
		}
	}
	if err := ValidateParts(g, parts); err != nil {
		t.Fatal(err)
	}
}

func TestLayerPartition(t *testing.T) {
	g := graph.Grid(3, 3)
	parts := LayerPartition(g, 0)
	if err := ValidateParts(g, parts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 9 {
		t.Fatalf("covered %d", total)
	}
}

func TestRandomConnectedPartition(t *testing.T) {
	g := graph.Grid(6, 6)
	parts := RandomConnectedPartition(g, 4, 3)
	if err := ValidateParts(g, parts); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 36 {
		t.Fatalf("covered %d", total)
	}
}

func TestEstimateSQBracketOrdered(t *testing.T) {
	for _, f := range graph.StandardFamilies() {
		g := f.Make(100)
		est, err := EstimateSQ(g, 1)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if est.Lower > est.Upper {
			t.Fatalf("%s: bracket inverted: [%d, %d]", f.Name, est.Lower, est.Upper)
		}
		if est.Upper <= 0 {
			t.Fatalf("%s: degenerate upper %d", f.Name, est.Upper)
		}
	}
}

func TestCandidatePartitionsValid(t *testing.T) {
	g := graph.Grid(6, 6)
	gens := CandidatePartitions(g, graph.ApproxCenter(g), 5)
	if len(gens) < 3 {
		t.Fatalf("only %d candidate partitions", len(gens))
	}
	for _, gen := range gens {
		if err := ValidateParts(g, gen.Parts); err != nil {
			t.Fatalf("%s: %v", gen.Name, err)
		}
	}
}

// builders are the two constructions Build chooses between, and Build.
var builders = []struct {
	name  string
	build func(*Skeleton, [][]graph.NodeID) (*Shortcut, error)
}{{"trivial", buildTrivial}, {"steiner-tree", buildSteiner}, {"portfolio", Build}}

// Property: on random connected graphs, every builder yields a verified
// shortcut whose quality is at least the max part diameter... at least 0,
// and Verify agrees with the builder's own certificate.
func TestBuilderCertificatesProperty(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%40) + 4
		g := graph.RandomConnected(n, n/2, 1, seed)
		parts := TreePartition(g, 4)
		for _, b := range builders {
			s, err := b.build(NewSkeleton(g), parts)
			if err != nil {
				return false
			}
			c, d := s.Congestion, s.Dilation
			if err := Verify(g, s); err != nil {
				return false
			}
			if s.Congestion != c || s.Dilation != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: TreePartition emits parts of size <= 2*ceil(n/k) + max degree
// slack... just check every part is connected and sizes are positive.
func TestTreePartitionProperty(t *testing.T) {
	f := func(seed int64, kk uint8) bool {
		k := int(kk%8) + 1
		g := graph.RandomConnected(30, 10, 1, seed)
		parts := TreePartition(g, k)
		if err := ValidateParts(g, parts); err != nil {
			return false
		}
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		return total == 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A skeleton shared across partitions keeps per-member and per-edge
// scratch from one build to the next; every shortcut built on it must
// equal the one a fresh skeleton builds. The graphs are E5's families and
// their Ĝ₂, the partitions every candidate EstimateSQ certifies, built in
// sequence on one skeleton per graph.
func TestSharedSkeletonMatchesFresh(t *testing.T) {
	fams := map[string]*graph.Graph{
		"grid":     graph.Grid(8, 8),
		"widegrid": graph.Grid(3, 21),
		"tree":     graph.CompleteTree(2, 6),
		"expander": graph.RandomRegular(64, 4, 7),
	}
	for _, name := range []string{"grid", "widegrid", "tree", "expander"} {
		lay, err := layered.New(fams[name], 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{fams[name], lay.G} {
			shared := NewSkeleton(g)
			for _, gen := range CandidatePartitions(g, shared.center(), 1) {
				for _, b := range builders {
					got, err := b.build(shared, gen.Parts)
					if err != nil {
						t.Fatalf("%s n=%d %s %s shared: %v", name, g.N(), gen.Name, b.name, err)
					}
					want, err := b.build(NewSkeleton(g), gen.Parts)
					if err != nil {
						t.Fatalf("%s n=%d %s %s fresh: %v", name, g.N(), gen.Name, b.name, err)
					}
					if !reflect.DeepEqual(got.Extra, want.Extra) || got.Congestion != want.Congestion ||
						got.Dilation != want.Dilation || got.Builder != want.Builder {
						t.Fatalf("%s n=%d %s %s: shared skeleton built (c=%d, d=%d, %s), fresh (c=%d, d=%d, %s)",
							name, g.N(), gen.Name, b.name, got.Congestion, got.Dilation, got.Builder,
							want.Congestion, want.Dilation, want.Builder)
					}
				}
			}
		}
	}
}
