package core_test

import (
	"context"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
)

// BenchmarkTreeSweeps times the tree layer of a solver iteration on the
// DefaultPrecond cluster trees of the prepared-solve workload graphs
// (grid-400 and expander-512, seed 1 as distbench's probe): TreeTotals is
// one aggregation round trip (restrict and center), TreeUpDown the
// preconditioner's tree solve (sweep), and NewTreeSet the compile a
// prepared instance pays once for the same (member-local) trees. The cold
// case is a
// fresh request comm's first TreeTotals, which every request pays: the
// network and its pooled scheduler and sweep state are built from
// nothing.
func BenchmarkTreeSweeps(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid-400", graph.Grid(20, 20)},
		{"expander-512", graph.RandomRegular(512, 4, 7)},
	} {
		c, err := core.NewCongestComm(congest.NewNetwork(tc.g, congest.Options{Supported: true, Seed: 1}), false)
		if err != nil {
			b.Fatal(err)
		}
		pre, ok := core.DefaultPrecond(tc.g, 1).(*core.SchwarzPrecond)
		if !ok {
			b.Fatal("the default preconditioner is not Schwarz")
		}
		if err := pre.Setup(c); err != nil {
			b.Fatal(err)
		}
		set, err := c.ClusterTrees(pre.Clusters())
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, tc.g.N())
		for v := range x {
			x[v] = float64(v%7) - 3
		}
		leaf := func(_ int, v graph.NodeID) float64 { return x[v] }
		b.Run(tc.name+"/totals", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.TreeTotals(set, leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
		in, err := core.PrepareInstance(context.Background(), tc.g, core.PrepareConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := in.Comm(core.Request{Seed: 1}).TreeTotals(set, leaf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/updown", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.TreeUpDown(set, leaf,
					func(int, float64) float64 { return 0 },
					func(_ int, _, _ graph.NodeID, parentVal, childSubtree float64) float64 {
						return parentVal + childSubtree
					}); err != nil {
					b.Fatal(err)
				}
			}
		})
		var sub graph.Induced
		parts := make([]*graph.PartTree, len(pre.Clusters()))
		for t, cl := range pre.Clusters() {
			parts[t] = sub.Tree(tc.g, cl, cl[0])
		}
		b.Run(tc.name+"/compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := congest.NewTreeSet(tc.g, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterTrees times what a prepared instance pays for its
// cluster trees on grid-1600 (seed 1): the DefaultPrecond clusters' induced
// BFS trees, member-local, compiled into one set. Its bytes per operation
// are O(Σ members), about twice the cover's 3,200 members, with no array
// the size of the graph per cluster.
func BenchmarkClusterTrees(b *testing.B) {
	g := graph.Grid(40, 40)
	c, err := core.NewCongestComm(congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1}), false)
	if err != nil {
		b.Fatal(err)
	}
	pre, ok := core.DefaultPrecond(g, 1).(*core.SchwarzPrecond)
	if !ok {
		b.Fatal("the default preconditioner is not Schwarz")
	}
	if err := pre.Setup(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.ClusterTrees(pre.Clusters()); err != nil {
			b.Fatal(err)
		}
	}
}
