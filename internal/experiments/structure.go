package experiments

import (
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/layered"
	"distlap/internal/minor"
	"distlap/internal/partwise"
	"distlap/internal/shortcut"
	"distlap/internal/simtrace"
	"distlap/internal/treewidth"
)

// E1 — Figure 1 + Observation 14: on the pairwise-intersecting hook
// instance (p = 2), a direct decomposition into 1-congested instances needs
// k = s = √n classes, while the layered reduction solves the whole
// instance at once; the table reports both, plus the measured naive cost of
// running s sequential 1-congested solves.
func E1(cfg Config) (*Table, error) {
	quick := cfg.Quick
	sizes := []int{6, 12, 18, 24, 30}
	if quick {
		sizes = []int{6, 10}
	}
	t := &Table{
		ID:     "E1",
		Title:  "congested PWA: direct decomposition vs layered reduction (Fig. 1, Obs. 14)",
		Header: []string{"s", "n", "p", "parts k", "1-cong classes", "layered rounds", "per-class seq rounds"},
		Notes:  "classes = k = Θ(√n) despite p = 2; the layered solver needs one pipeline, not k",
	}
	var pts []point
	for _, s := range sizes {
		pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
			g, inst := partwise.HookCongestedInstance(s)
			classes := partwise.MinOneCongestedCover(inst.Parts)

			nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1, Trace: tr})
			out, err := partwise.LayeredSolver{Seed: 7}.Solve(nw, inst, partwise.Min)
			if err != nil {
				return nil, err
			}
			want := inst.Expected(partwise.Min)
			for i := range want {
				if out[i] != want[i] {
					return nil, fmt.Errorf("E1: s=%d wrong aggregate", s)
				}
			}
			// Sequential per-class solves: each class is a 1-congested
			// sub-instance; measure the total of solving them one by one.
			seq := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 1, Trace: tr})
			var classSolver partwise.ShortcutSolver
			for i := range inst.Parts {
				sub := &partwise.Instance{
					Parts:  inst.Parts[i : i+1],
					Values: inst.Values[i : i+1],
				}
				if _, err := classSolver.Solve(seq, sub, partwise.Min); err != nil {
					return nil, err
				}
			}
			return row(
				itoa(s), itoa(g.N()), "2", itoa(len(inst.Parts)), itoa(classes),
				itoa(nw.Rounds()), itoa(seq.Rounds()),
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

// E2 — Figure 2 + Lemma 16: the cost of simulating Ĝ_p in G is exactly a
// ×p round factor; the table runs the same aggregation workload on layered
// graphs of growing p and reports layered rounds vs simulated (charged)
// rounds.
func E2(cfg Config) (*Table, error) {
	quick := cfg.Quick
	ps := []int{1, 2, 4, 8}
	if quick {
		ps = []int{1, 2, 4}
	}
	t := &Table{
		ID:     "E2",
		Title:  "simulating the layered graph in G (Fig. 2, Lemma 16)",
		Header: []string{"p", "layered n", "layered rounds", "simulated rounds", "overhead"},
		Notes:  "overhead = simulated/layered = p by construction; layered rounds stay ~flat (Theorem 22)",
	}
	var pts []point
	for _, p := range ps {
		pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
			base := graph.Grid(6, 6)
			lay, err := layered.New(base, p)
			if err != nil {
				return nil, err
			}
			nw := congest.NewNetwork(lay.G, congest.Options{Supported: true, Seed: 3, Trace: tr})
			// Workload: aggregate over each layer (p disjoint copies of G as
			// parts).
			inst := &partwise.Instance{}
			for l := 0; l < p; l++ {
				part := make([]graph.NodeID, base.N())
				vals := make([]congest.Word, base.N())
				for v := 0; v < base.N(); v++ {
					part[v] = lay.Copy(v, l)
					vals[v] = congest.Word(v)
				}
				inst.Parts = append(inst.Parts, part)
				inst.Values = append(inst.Values, vals)
			}
			if _, err := new(partwise.ShortcutSolver).Solve(nw, inst, partwise.Max); err != nil {
				return nil, err
			}
			layRounds := nw.Rounds()
			sim := lay.SimulatedRounds(layRounds)
			return row(
				itoa(p), itoa(lay.G.N()), itoa(layRounds), itoa(sim),
				ftoa(float64(sim)/float64(layRounds)),
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

// E3 — Lemma 19: heuristic treewidth of Ĝ_p versus the p·(w+1)−1 witness
// bound across graph families.
func E3(cfg Config) (*Table, error) {
	quick := cfg.Quick
	fams := []namedGraph{
		{name: "path", mk: func() *graph.Graph { return graph.Path(12) }},
		{name: "tree", mk: func() *graph.Graph { return graph.CompleteTree(2, 4) }},
		{name: "caterpillar", mk: func() *graph.Graph { return graph.Caterpillar(5, 2) }},
		{name: "cycle", mk: func() *graph.Graph { return graph.Cycle(10) }},
		{name: "grid3x3", mk: func() *graph.Graph { return graph.Grid(3, 3) }},
	}
	ps := []int{1, 2, 3, 4}
	if quick {
		fams = fams[:3]
		ps = []int{1, 2, 3}
	}
	t := &Table{
		ID:     "E3",
		Title:  "treewidth of the layered graph (Lemma 19)",
		Header: []string{"family", "w(G)", "p", "heuristic w(G_p)", "bound p(w+1)-1", "within"},
		Notes:  "heuristic width of Ĝ_p never exceeds the Lemma 19 bound (the lifted decomposition witnesses it)",
	}
	var pts []point
	for _, f := range fams {
		for _, p := range ps {
			pts = append(pts, func(simtrace.Collector) ([][]string, error) {
				g := f.mk()
				w := treewidth.Heuristic(g).Width()
				lay, err := layered.New(g, p)
				if err != nil {
					return nil, err
				}
				// The lifted decomposition is a certified upper bound; also run
				// the heuristic directly on the layered graph.
				lifted := treewidth.LiftToLayered(treewidth.Heuristic(g), lay)
				if err := lifted.Validate(lay.G); err != nil {
					return nil, err
				}
				direct := treewidth.Heuristic(lay.G).Width()
				bound := p*(w+1) - 1
				hw := direct
				if lifted.Width() < hw {
					hw = lifted.Width()
				}
				ok := "yes"
				if hw > bound {
					ok = "NO"
				}
				return row(f.name, itoa(w), itoa(p), itoa(hw), itoa(bound), ok), nil
			})
		}
	}
	rows, err := runPoints(cfg, pts)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// E4 — Figure 3 + Observation 21: certified minor density of the 2-layered
// grid grows as √n/2 while the planar base stays below 3.
func E4(cfg Config) (*Table, error) {
	quick := cfg.Quick
	sizes := []int{4, 8, 12, 16, 20}
	if quick {
		sizes = []int{4, 8, 12}
	}
	t := &Table{
		ID:     "E4",
		Title:  "minor density blowup of the 2-layered grid (Fig. 3, Obs. 21)",
		Header: []string{"s", "n(G)", "δ̂(G) (greedy)", "δ̂(Ĝ2) (certified)", "s/2"},
		Notes:  "δ̂(Ĝ2) ≥ s/2 = Ω(√n); the base grid is planar so any certified density stays < 3",
	}
	var pts []point
	for _, s := range sizes {
		pts = append(pts, func(simtrace.Collector) ([][]string, error) {
			lay, cert, err := minor.Observation21(s)
			if err != nil {
				return nil, err
			}
			base := graph.Grid(s, s)
			baseCert := minor.GreedyDenseMinor(base, 2)
			return row(
				itoa(s), itoa(base.N()),
				ftoa(baseCert.Density(base)),
				ftoa(cert.Density(lay.G)),
				ftoa(float64(s)/2),
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

// E5 — Theorem 22: the empirical shortcut-quality bracket of Ĝ_p stays
// within polylog factors of G's, independent of p.
func E5(cfg Config) (*Table, error) {
	quick := cfg.Quick
	fams := []namedGraph{
		{name: "grid", mk: func() *graph.Graph { return graph.Grid(8, 8) }},
		{name: "widegrid", mk: func() *graph.Graph { return graph.Grid(3, 21) }},
		{name: "tree", mk: func() *graph.Graph { return graph.CompleteTree(2, 6) }},
		{name: "expander", mk: func() *graph.Graph { return graph.RandomRegular(64, 4, 7) }},
	}
	ps := []int{2, 4}
	if quick {
		fams = fams[:2]
		ps = []int{2}
	}
	t := &Table{
		ID:     "E5",
		Title:  "shortcut quality of the layered graph (Theorem 22)",
		Header: []string{"family", "Q̂(G)", "p", "Q̂(Ĝ_p)", "ratio"},
		Notes:  "ratio Q̂(Ĝ_p)/Q̂(G) stays O(polylog), not Ω(p) (Theorem 22)",
	}
	var pts []point
	for _, f := range fams {
		for _, p := range ps {
			pts = append(pts, func(simtrace.Collector) ([][]string, error) {
				g := f.mk()
				estG, err := shortcut.EstimateSQ(g, 1)
				if err != nil {
					return nil, err
				}
				lay, err := layered.New(g, p)
				if err != nil {
					return nil, err
				}
				estL, err := shortcut.EstimateSQ(lay.G, 1)
				if err != nil {
					return nil, err
				}
				return row(
					f.name, itoa(estG.Upper), itoa(p), itoa(estL.Upper),
					ftoa(float64(estL.Upper)/float64(estG.Upper)),
				), nil
			})
		}
	}
	rows, err := runPoints(cfg, pts)
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
