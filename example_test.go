package distlap_test

import (
	"context"
	"fmt"

	"distlap"
)

// ExampleSolver_Prepare is the preferred repeated-solve pattern: prepare
// the instance once (paying setup exactly once), then issue requests —
// single solves, multi-RHS batches, flow queries — against the cached
// state. Each request pays only iteration cost.
func ExampleSolver_Prepare() {
	g, err := distlap.NewGraph(3, []distlap.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	s := distlap.NewSolver(distlap.WithEps(1e-10))

	inst, err := s.Prepare(context.Background(), g)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// A 2-RHS batch against the one prepared instance: setup is charged
	// zero times, every request is pure iteration.
	batch, err := inst.SolveBatch(context.Background(), [][]float64{
		{1, 0, -1},
		{-1, 2, -1},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fl, err := inst.Flow(context.Background(), 0, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("x0-x2 = %.3f, solves = %d, R(0,2) = %.2f\n",
		batch[0].X[0]-batch[0].X[2], len(batch), fl.Resistance)
	// Output: x0-x2 = 2.000, solves = 2, R(0,2) = 2.00
}

// ExampleSolver_Solve solves a tiny Laplacian system one-shot and prints
// the measured round count's positivity and the potential gap. (For
// repeated solves on one graph, prefer Solver.Prepare — see
// ExampleSolver_Prepare.)
func ExampleSolver_Solve() {
	g, err := distlap.NewGraph(3, []distlap.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	b := []float64{1, 0, -1}
	res, err := distlap.NewSolver(distlap.WithEps(1e-10)).Solve(g, b)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("x0-x2 = %.3f, rounds > 0: %v\n", res.X[0]-res.X[2], res.Rounds > 0)
	// Output: x0-x2 = 2.000, rounds > 0: true
}

// ExampleSolver_AggregateParts runs the paper's congested part-wise
// aggregation primitive on two overlapping parts.
func ExampleSolver_AggregateParts() {
	g, err := distlap.NewGraph(4, []distlap.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	inst := &distlap.PartwiseInstance{
		Parts:  [][]int{{0, 1, 2}, {1, 2, 3}}, // node congestion p = 2
		Values: [][]int64{{5, 2, 9}, {1, 7, 3}},
	}
	res, err := distlap.NewSolver().AggregateParts(g, inst, distlap.AggMin)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Values)
	// Output: [2 1]
}

// ExampleSolver_Flow computes a series resistance.
func ExampleSolver_Flow() {
	g, err := distlap.NewGraph(3, []distlap.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fl, err := distlap.NewSolver().Flow(g, 0, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.2f\n", fl.Resistance)
	// Output: 2.00
}

// ExampleSolver_MaxFlow approximates (and here exactly recovers) an s-t
// max flow.
func ExampleSolver_MaxFlow() {
	g, err := distlap.NewGraph(4, []distlap.Edge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 3, Weight: 2}, // capacity-2 path
		{U: 0, V: 2, Weight: 3}, {U: 2, V: 3, Weight: 3}, // capacity-3 path
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := distlap.NewSolver().MaxFlow(g, 0, 3, 0.1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Value)
	// Output: 5
}
