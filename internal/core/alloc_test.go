//go:build !race

// Allocation-regression guard for the steady-state PCG iteration. The race
// runtime changes allocation behaviour, so this runs only in the plain test
// pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package core

import (
	"context"
	"runtime"
	"testing"

	"distlap/internal/graph"
)

// iterAllocBudget bounds the marginal heap allocations of one steady-state
// PCG iteration on a prepared instance. The iteration's vectors (residual,
// search direction, reduction operands) and the engines' delivery/scheduler
// state are pooled, so what remains is the documented small fixed set: the
// preconditioner's output vector, the per-call result slices of the global
// reductions and tree primitives, and the variadic argument slices. ~18 on
// go1.x today; the budget leaves slack for toolchain drift, not for new
// per-iteration vectors — those belong in a pool.
const iterAllocBudget = 24

// TestPCGIterationAllocs measures the marginal allocations per PCG
// iteration by differencing two deterministic solves of different depths on
// one prepared instance (the fixed per-request cost — fresh engine, pools,
// result — cancels out).
func TestPCGIterationAllocs(t *testing.T) {
	g := graph.Grid(16, 16)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: ModeUniversal, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	mean := 0.0
	for _, v := range b {
		mean += v
	}
	mean /= float64(len(b))
	for i := range b {
		b[i] -= mean
	}

	solve := func(tol float64) (float64, int) {
		var iters int
		allocs := testing.AllocsPerRun(3, func() {
			res, err := in.Solve(b, Request{Tol: tol, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			iters = res.Iterations
		})
		return allocs, iters
	}
	shallowAllocs, shallowIters := solve(1e-4)
	deepAllocs, deepIters := solve(1e-10)
	if deepIters <= shallowIters {
		t.Fatalf("tolerance sweep did not separate iteration counts: %d vs %d", shallowIters, deepIters)
	}
	perIter := (deepAllocs - shallowAllocs) / float64(deepIters-shallowIters)
	t.Logf("allocs: %d iters -> %.0f, %d iters -> %.0f; marginal %.2f/iteration (budget %d)",
		shallowIters, shallowAllocs, deepIters, deepAllocs, perIter, iterAllocBudget)
	if perIter > iterAllocBudget {
		t.Fatalf("steady-state PCG iteration allocates %.2f, budget %d — new per-iteration state belongs in a pool",
			perIter, iterAllocBudget)
	}
}

// TestInstanceSizeBytesTracksRetainedHeap holds prepared universal
// instances of the four workload-sized graphs and requires the heap they
// retain, graph included, to stay within [0.85, 1.25] × SizeBytes, the
// estimate distlapd's cache budget charges. Four copies of each are held
// at once, so the measured share per instance averages out allocator
// rounding. It read 0.97–1.12 when member-local part trees landed.
func TestInstanceSizeBytesTracksRetainedHeap(t *testing.T) {
	const lo, hi, copies = 0.85, 1.25, 4
	for _, tc := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"grid-400", func() *graph.Graph { return graph.Grid(20, 20) }},
		{"expander-512", func() *graph.Graph { return graph.RandomRegular(512, 4, 7) }},
		{"grid-1600", func() *graph.Graph { return graph.Grid(40, 40) }},
		{"expander-2048", func() *graph.Graph { return graph.RandomRegular(2048, 4, 7) }},
	} {
		var held [copies]*Instance
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range held {
			in, err := PrepareInstance(context.Background(), tc.g(), PrepareConfig{Mode: ModeUniversal, Tol: 1e-6, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			held[i] = in
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc-before.HeapAlloc) / copies
		size := float64(held[0].SizeBytes())
		t.Logf("%s: SizeBytes %.0f, retained %.0f (%.3f×)", tc.name, size, retained, retained/size)
		if r := retained / size; r < lo || r > hi {
			t.Errorf("%s: retained heap is %.3f × SizeBytes (%.0f of %.0f bytes), want [%.2f, %.2f]",
				tc.name, r, retained, size, lo, hi)
		}
		runtime.KeepAlive(held)
	}
}
