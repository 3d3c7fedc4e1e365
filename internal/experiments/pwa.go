package experiments

import (
	"fmt"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/ncc"
	"distlap/internal/partwise"
	"distlap/internal/simtrace"
	"distlap/internal/treewidth"
)

// congestedRounds runs the layered solver on a p-congested instance and
// returns the measured rounds (validating the aggregates).
func congestedRounds(g *graph.Graph, inst *partwise.Instance, seed int64, tr simtrace.Collector) (int, error) {
	nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: seed, Trace: tr})
	out, err := partwise.LayeredSolver{Seed: seed}.Solve(nw, inst, partwise.Min)
	if err != nil {
		return 0, err
	}
	want := inst.Expected(partwise.Min)
	for i := range want {
		if out[i] != want[i] {
			return 0, fmt.Errorf("experiments: wrong aggregate for part %d", i)
		}
	}
	return nw.Rounds(), nil
}

// E6 — Corollary 20: p-congested PWA rounds on bounded-treewidth graphs
// against the p²·tw·D reference scaling.
func E6(cfg Config) (*Table, error) {
	quick := cfg.Quick
	fams := []namedGraph{
		{name: "caterpillar", mk: func() *graph.Graph { return graph.Caterpillar(12, 2) }},
		{name: "tree", mk: func() *graph.Graph { return graph.CompleteTree(2, 6) }},
		{name: "cycle", mk: func() *graph.Graph { return graph.Cycle(36) }},
	}
	ps := []int{1, 2, 4, 6}
	if quick {
		fams = fams[:2]
		ps = []int{1, 2, 4}
	}
	t := &Table{
		ID:     "E6",
		Title:  "congested PWA on bounded-treewidth graphs (Corollary 20)",
		Header: []string{"family", "tw", "D", "p", "rounds", "rounds/(p^2·tw·D)"},
		Notes:  "the normalized column stays bounded as p grows (Õ(p²·tw·D) scaling)",
	}
	var pts []point
	for _, f := range fams {
		for _, p := range ps {
			pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
				g := f.mk()
				tw := treewidth.Heuristic(g).Width()
				d := graph.Diameter(g)
				inst := partwise.RandomCongestedInstance(g, p, 4, 11)
				rounds, err := congestedRounds(g, inst, 5, tr)
				if err != nil {
					return nil, err
				}
				norm := float64(rounds) / float64(p*p*tw*d)
				return row(f.name, itoa(tw), itoa(d), itoa(p), itoa(rounds), ftoa(norm)), nil
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

// E7 — Corollary 23: p-congested PWA on general graphs scales ~linearly in
// p (Supported-CONGEST), versus the naive per-layer decomposition.
func E7(cfg Config) (*Table, error) {
	quick := cfg.Quick
	fams := []namedGraph{
		{name: "grid", mk: func() *graph.Graph { return graph.Grid(8, 8) }},
		{name: "widegrid", mk: func() *graph.Graph { return graph.Grid(4, 16) }},
		{name: "expander", mk: func() *graph.Graph { return graph.RandomRegular(64, 4, 9) }},
	}
	ps := []int{1, 2, 4, 8}
	if quick {
		fams = fams[:2]
		ps = []int{1, 2, 4}
	}
	t := &Table{
		ID:     "E7",
		Title:  "congested PWA on general graphs (Corollary 23)",
		Header: []string{"family", "D", "p", "layered rounds", "rounds/p", "naive rounds"},
		Notes:  "rounds/p stays ~flat (linear p dependence); naive = NaiveGlobalSolver on the same instance",
	}
	var pts []point
	for _, f := range fams {
		for _, p := range ps {
			pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
				g := f.mk()
				d := graph.Diameter(g)
				inst := partwise.RandomCongestedInstance(g, p, 4, 13)
				rounds, err := congestedRounds(g, inst, 3, tr)
				if err != nil {
					return nil, err
				}
				naive := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 3, Trace: tr})
				if _, err := (partwise.NaiveGlobalSolver{}).Solve(naive, inst, partwise.Min); err != nil {
					return nil, err
				}
				return row(
					f.name, itoa(d), itoa(p), itoa(rounds),
					ftoa(float64(rounds)/float64(p)), itoa(naive.Rounds()),
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

// E8 — Lemma 26: NCC congested PWA rounds against the p + log n reference.
func E8(cfg Config) (*Table, error) {
	quick := cfg.Quick
	ns := []int{64, 256, 1024}
	ps := []int{1, 2, 4, 8, 16}
	if quick {
		ns = []int{64, 256}
		ps = []int{1, 4, 16}
	}
	t := &Table{
		ID:     "E8",
		Title:  "congested PWA in the NCC model (Lemma 26)",
		Header: []string{"n", "p", "rounds", "p + log2(n)", "ratio"},
		Notes:  "rounds track p + log n, not p·log n or k",
	}
	var pts []point
	for _, n := range ns {
		for _, p := range ps {
			pts = append(pts, func(tr simtrace.Collector) ([][]string, error) {
				side := 1
				for side*side < n {
					side++
				}
				g := graph.Grid(side, side)
				inst := partwise.RandomCongestedInstance(g, p, 6, 17)
				nw := ncc.NewNetwork(g.N(), tr, nil)
				out, err := nw.Aggregate(inst, partwise.Min)
				if err != nil {
					return nil, err
				}
				want := inst.Expected(partwise.Min)
				for i := range want {
					if out[i] != want[i] {
						return nil, fmt.Errorf("E8: wrong aggregate")
					}
				}
				ref := p + log2(g.N())
				return row(
					itoa(g.N()), itoa(p), itoa(nw.Rounds()), itoa(ref),
					ftoa(float64(nw.Rounds())/float64(ref)),
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

func log2(n int) int {
	k := 0
	for p := 1; p < n; p *= 2 {
		k++
	}
	return k
}
