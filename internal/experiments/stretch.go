package experiments

import (
	"distlap/internal/congest"
	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/simtrace"
)

// E14 — the low-stretch preconditioning substrate (the tree family behind
// the sequential Laplacian-paradigm solvers the paper builds on, cf. the
// FOCS'21 base [18] and the parallel-solvers line [6, 44]): measured
// average stretch of BFS vs MST vs MPX/AKPW trees, and the effect of the
// tree choice on the distributed tree-preconditioned solve.
func E14(cfg Config) (*Table, error) {
	quick := cfg.Quick
	fams := []namedGraph{
		{name: "grid", mk: func() *graph.Graph { return graph.Grid(14, 14) }},
		{name: "torus", mk: func() *graph.Graph { return graph.Torus(10, 10) }},
		{name: "expander", mk: func() *graph.Graph { return graph.RandomRegular(128, 4, 3) }},
		{name: "weighted", mk: func() *graph.Graph { return graph.RandomConnected(100, 200, 50, 7) }},
	}
	if quick {
		fams = fams[:2]
	}
	t := &Table{
		ID:     "E14",
		Title:  "low-stretch trees and tree preconditioning (solver substrate)",
		Header: []string{"family", "stretch BFS", "stretch MST", "stretch LST", "iters BFS-tree", "iters LST-tree"},
		Notes:  "stretch = mean weighted detour resistance; iters = PCG iterations with the tree preconditioner at eps=1e-8",
	}
	var pts []point
	for _, f := range fams {
		pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
			g := f.mk()
			bfs := graph.CenterTree(g)
			mstIDs, _ := graph.MST(g)
			mst := graph.TreeFromEdges(g, mstIDs, graph.ApproxCenter(g))
			lst := graph.LowStretchTree(g, 1)

			b := linalg.RandomBVector(g.N(), 5)
			iters := func(pre core.Preconditioner) (int, error) {
				nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1, Trace: tr})
				c, err := core.NewCongestComm(nw, false)
				if err != nil {
					return 0, err
				}
				if err := pre.Setup(c); err != nil {
					return 0, err
				}
				res, err := core.Iterate(c, b, pre, core.Options{Tol: 1e-8})
				if err != nil {
					return 0, err
				}
				return res.Iterations, nil
			}
			itBFS, err := iters(&core.TreePrecond{})
			if err != nil {
				return nil, err
			}
			itLST, err := iters(&core.TreePrecond{LowStretch: true, Seed: 1})
			if err != nil {
				return nil, err
			}
			return row(
				f.name,
				ftoa(graph.AverageStretch(g, bfs)),
				ftoa(graph.AverageStretch(g, mst)),
				ftoa(graph.AverageStretch(g, lst)),
				itoa(itBFS), itoa(itLST),
			), nil
		})
	}
	rows, err := runPoints(cfg, pts)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
