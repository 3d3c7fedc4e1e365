// Command laplace solves a Laplacian system L x = b on a generated graph in
// a chosen communication model and reports the measured round complexity
// and solution accuracy.
//
// Usage:
//
//	laplace -family grid -n 256 -mode universal -eps 1e-8
//	laplace -family expander -n 1024 -mode hybrid
//
// Families: path, grid, widegrid, tree, expander. Modes: universal,
// congest, baseline, hybrid. The right-hand side is a deterministic
// mean-zero vector (override the seed with -seed).
package main

import (
	"flag"
	"fmt"
	"os"

	"distlap/internal/core"
	"distlap/internal/graph"
	"distlap/internal/linalg"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "laplace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("laplace", flag.ContinueOnError)
	family := fs.String("family", "grid", "graph family: path|grid|widegrid|tree|expander")
	n := fs.Int("n", 256, "approximate node count")
	load := fs.String("load", "", "load the graph from an edge-list file instead of generating it")
	save := fs.String("save", "", "write the (generated) graph to an edge-list file and continue")
	mode := fs.String("mode", "universal", "model: universal|congest|baseline|hybrid")
	eps := fs.Float64("eps", 1e-8, "target relative residual")
	seed := fs.Int64("seed", 1, "rng seed")
	check := fs.Bool("check", false, "verify against the exact solver (O(n^3), small n only)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := makeGraph(*family, *n)
	if err != nil {
		return err
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		g, err = graph.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		*family = *load
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := graph.Write(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	b := linalg.RandomBVector(g.N(), *seed)
	res, err := core.SolveOnce(g, b, core.PrepareConfig{Mode: core.Mode(*mode), Tol: *eps, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("graph:       %s (n=%d, m=%d, D≈%d)\n",
		*family, g.N(), g.M(), graph.DiameterApprox(g))
	fmt.Printf("model:       %s\n", *mode)
	fmt.Printf("eps:         %.1e\n", *eps)
	fmt.Printf("iterations:  %d\n", res.Iterations)
	fmt.Printf("rounds:      %d (setup %d, per-iteration %.1f)\n",
		res.Rounds, res.SetupRounds,
		float64(res.Rounds-res.SetupRounds)/float64(max(1, res.Iterations)))
	fmt.Printf("residual:    %.3e\n", res.Residual)
	if *check {
		l := linalg.NewLaplacian(g)
		xStar, err := l.SolveExact(b)
		if err != nil {
			return err
		}
		fmt.Printf("L-error:     %.3e (vs exact solution)\n", l.RelativeLError(res.X, xStar))
	}
	return nil
}

func makeGraph(family string, n int) (*graph.Graph, error) {
	for _, f := range graph.StandardFamilies() {
		if f.Name == family {
			return f.Make(n), nil
		}
	}
	return nil, fmt.Errorf("unknown family %q", family)
}
