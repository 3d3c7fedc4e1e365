package shortcut

import (
	"math/rand"
	"sort"
	"strconv"

	"distlap/internal/graph"
)

// This file provides the empirical shortcut-quality bracket used by the
// experiments (DESIGN.md §1): adversarial partition generators and an
// estimator that reports
//
//	lower = D(G)               (any part containing two antipodal nodes of
//	                            a shortest path forces dilation >= D, since
//	                            shortcuts are subgraphs of G)
//	upper = max over candidate partitions of the portfolio quality
//
// The paper notes Ω(D) <= SQ(G) <= O(D + √n) (§2); the estimator's bracket
// follows that shape and, crucially, is computed by the *same* procedure on
// G and on layered graphs Ĝ_p, so ratios across the two are meaningful
// (experiment E5).

// QualityEstimate is the result of EstimateSQ.
type QualityEstimate struct {
	Lower     int // hop-diameter lower bound
	Upper     int // worst candidate-partition portfolio quality
	WorstName string
}

// PartitionGen names a partition of a graph for the estimator sweep.
type PartitionGen struct {
	Name  string
	Parts [][]graph.NodeID
}

// CandidatePartitions generates the adversarial partition suite for g:
//
//   - "whole": the single part V(G) (stresses dilation);
//   - "tree-k": a spanning tree chopped into ~k connected pieces for
//     k ∈ {√n, 2√n} (the classic worst-case shape behind the Ω(√n + D)
//     lower bounds);
//   - "layers": BFS layers from a center, split into connected components
//     (ring/band parts, the planar stress case);
//   - "random-k": random connected parts grown greedily (seeded).
//
// center roots the BFS layers; EstimateSQ passes its skeleton's root.
func CandidatePartitions(g *graph.Graph, center graph.NodeID, seed int64) []PartitionGen {
	n := g.N()
	if n == 0 {
		return nil
	}
	var gens []PartitionGen
	all := make([]graph.NodeID, n)
	for i := range all {
		all[i] = i
	}
	gens = append(gens, PartitionGen{Name: "whole", Parts: [][]graph.NodeID{all}})

	rt := isqrt(n)
	if rt < 2 {
		rt = 2
	}
	for _, k := range []int{rt, 2 * rt} {
		if parts := TreePartition(g, k); len(parts) > 1 {
			gens = append(gens, PartitionGen{Name: "tree-" + strconv.Itoa(k), Parts: parts})
		}
	}
	if parts := LayerPartition(g, center); len(parts) > 1 {
		gens = append(gens, PartitionGen{Name: "layers", Parts: parts})
	}
	if parts := RandomConnectedPartition(g, rt, seed); len(parts) > 1 {
		gens = append(gens, PartitionGen{Name: "random-" + strconv.Itoa(rt), Parts: parts})
	}
	return gens
}

// EstimateSQ computes the quality bracket for g using the builder
// portfolio (Build) over the candidate partitions, all built on one skeleton of g
// whose root also roots the "layers" partition.
func EstimateSQ(g *graph.Graph, seed int64) (QualityEstimate, error) {
	est := QualityEstimate{Lower: graph.DiameterApprox(g)}
	sk := NewSkeleton(g)
	for _, gen := range CandidatePartitions(g, sk.center(), seed) {
		s, err := Build(sk, gen.Parts)
		if err != nil {
			return est, err
		}
		if q := s.Quality(); q > est.Upper {
			est.Upper = q
			est.WorstName = gen.Name
		}
	}
	if est.Upper < est.Lower {
		// The portfolio can beat the double-sweep diameter estimate only
		// through estimation slack; clamp so the bracket stays ordered.
		est.Lower = est.Upper
	}
	return est, nil
}

// TreePartition chops a BFS spanning tree of g into connected parts of size
// roughly n/k by a post-order accumulation: whenever a subtree bucket
// reaches the target size it is emitted as a part. Always returns a
// partition into induced-connected parts covering all nodes.
func TreePartition(g *graph.Graph, k int) [][]graph.NodeID {
	n := g.N()
	if n == 0 || k <= 0 {
		return nil
	}
	target := (n + k - 1) / k
	if target < 1 {
		target = 1
	}
	tr := graph.BFSTree(g, 0)
	if len(tr.Members) != n {
		return nil // disconnected
	}
	var parts [][]graph.NodeID
	// bucket[i] collects member i's residual subtree nodes not yet emitted.
	bucket := make([][]graph.NodeID, n)
	// Iterate members in reverse BFS order = children before parents, and
	// fold each unemitted bucket into its parent's.
	for i := n - 1; i >= 0; i-- {
		acc := append(bucket[i], tr.Members[i])
		if len(acc) >= target || i == 0 {
			sort.Ints(acc)
			parts = append(parts, acc)
		} else {
			p := tr.Parent[i]
			bucket[p] = append(bucket[p], acc...)
		}
	}
	return parts
}

// LayerPartition splits the nodes by BFS distance from root and then splits
// each layer into its induced-connected components.
func LayerPartition(g *graph.Graph, root graph.NodeID) [][]graph.NodeID {
	res := graph.BFS(g, root)
	byLayer := map[int][]graph.NodeID{}
	maxd := 0
	for v, d := range res.Dist {
		if d < 0 {
			return nil
		}
		byLayer[d] = append(byLayer[d], v)
		if d > maxd {
			maxd = d
		}
	}
	var parts [][]graph.NodeID
	for d := 0; d <= maxd; d++ {
		layer := byLayer[d]
		sub, orig := g.Subgraph(layer)
		for _, comp := range graph.Components(sub) {
			part := make([]graph.NodeID, len(comp))
			for i, lv := range comp {
				part[i] = orig[lv]
			}
			sort.Ints(part)
			parts = append(parts, part)
		}
	}
	return parts
}

// RandomConnectedPartition grows k connected parts from random seeds by
// round-robin frontier expansion; every node ends up in exactly one part.
func RandomConnectedPartition(g *graph.Graph, k int, seed int64) [][]graph.NodeID {
	n := g.N()
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	seeds := rng.Perm(n)[:k]
	frontiers := make([][]graph.NodeID, k)
	for i, s := range seeds {
		owner[s] = i
		frontiers[i] = []graph.NodeID{s}
	}
	remaining := n - k
	for remaining > 0 {
		progress := false
		for i := 0; i < k; i++ {
			// Pop frontier nodes until one with an unclaimed neighbor.
			for len(frontiers[i]) > 0 {
				v := frontiers[i][0]
				claimed := false
				for _, h := range g.Neighbors(v) {
					if owner[h.To] == -1 {
						owner[h.To] = i
						frontiers[i] = append(frontiers[i], h.To)
						remaining--
						progress = true
						claimed = true
						break
					}
				}
				if claimed {
					break
				}
				frontiers[i] = frontiers[i][1:]
			}
		}
		if !progress {
			// Unreachable leftovers (disconnected graph): give each its
			// own part.
			for v := 0; v < n; v++ {
				if owner[v] == -1 {
					owner[v] = k
					k++
					remaining--
				}
			}
		}
	}
	parts := make([][]graph.NodeID, k)
	for v, o := range owner {
		parts[o] = append(parts[o], v)
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}
