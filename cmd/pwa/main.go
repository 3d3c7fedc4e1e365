// Command pwa generates a p-congested part-wise aggregation instance on a
// chosen graph family and compares the three CONGEST solvers plus the NCC
// solver on it — direct access to the paper's central primitive
// (Definitions 4/13, Lemmas 15–18, 26).
//
// Usage:
//
//	pwa -family grid -n 64 -p 2
//	pwa -family expander -n 256 -p 8 -parts 16
package main

import (
	"flag"
	"fmt"
	"os"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/ncc"
	"distlap/internal/partwise"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pwa:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pwa", flag.ContinueOnError)
	family := fs.String("family", "grid", "graph family: path|grid|widegrid|tree|expander")
	n := fs.Int("n", 64, "approximate node count")
	p := fs.Int("p", 2, "node congestion (parts per node)")
	partsPer := fs.Int("parts", 4, "parts per congestion layer")
	seed := fs.Int64("seed", 1, "rng seed")
	supported := fs.Bool("supported", true, "Supported-CONGEST (topology known, construction free)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Graph
	for _, f := range graph.StandardFamilies() {
		if f.Name == *family {
			g = f.Make(*n)
		}
	}
	if g == nil {
		return fmt.Errorf("unknown family %q", *family)
	}
	inst := partwise.RandomCongestedInstance(g, *p, *partsPer, *seed)
	if err := inst.Validate(g); err != nil {
		return err
	}
	want := inst.Expected(partwise.Min)
	fmt.Printf("graph: %s n=%d m=%d D≈%d | instance: k=%d parts, congestion p=%d\n\n",
		*family, g.N(), g.M(), graph.DiameterApprox(g), len(inst.Parts), inst.Congestion())
	fmt.Printf("%-14s %10s %10s\n", "solver", "rounds", "correct")

	check := func(out []congest.Word) string {
		for i := range want {
			if out[i] != want[i] {
				return "NO"
			}
		}
		return "yes"
	}
	congestSolvers := []partwise.Solver{
		partwise.NaiveGlobalSolver{},
		partwise.LayeredSolver{Seed: *seed},
	}
	if inst.Congestion() <= 1 {
		congestSolvers = append(congestSolvers, new(partwise.ShortcutSolver))
	}
	for _, solver := range congestSolvers {
		nw := congest.NewNetwork(g, congest.Options{Supported: *supported, Seed: *seed})
		out, err := solver.Solve(nw, inst, partwise.Min)
		if err != nil {
			return fmt.Errorf("%s: %w", solver.Name(), err)
		}
		fmt.Printf("%-14s %10d %10s\n", solver.Name(), nw.Rounds(), check(out))
	}
	nnw := ncc.NewNetwork(g.N(), nil, nil)
	out, err := nnw.Aggregate(inst, partwise.Min)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %10d %10s   (capacity %d msgs/node/round)\n",
		"ncc", nnw.Rounds(), check(out), nnw.Capacity())
	return nil
}
