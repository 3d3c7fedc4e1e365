package core

// Tests for the core Instance machinery: mid-iteration cancellation via a
// countdown Cancel hook (both the PCG and Chebyshev paths and the round-
// barrier path through the congest engine), request isolation, and the
// size estimator's sanity.

import (
	"context"
	"errors"
	"slices"
	"testing"

	"distlap/internal/graph"
	"distlap/internal/linalg"
)

func prepared(t *testing.T, mode Mode, seed int64) (*Instance, []float64) {
	t.Helper()
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: mode, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in, linalg.RandomBVector(g.N(), 8)
}

// countdown returns a Cancel hook that fires errStop after n polls — a
// deterministic stand-in for a context that dies mid-solve.
var errStop = errors.New("stop requested")

func countdown(n int) func() error {
	calls := 0
	return func() error {
		calls++
		if calls > n {
			return errStop
		}
		return nil
	}
}

// TestInstanceSolveCancelsMidIteration drives the Cancel hook down to zero
// partway through a solve: the error must surface as a plain error (never
// a panic), and it must be the hook's own error.
func TestInstanceSolveCancelsMidIteration(t *testing.T) {
	in, b := prepared(t, ModeUniversal, 1)
	// A full solve polls Cancel at every round barrier and iteration; a
	// small budget dies long before convergence.
	_, err := in.Solve(b, Request{Seed: 1, Cancel: countdown(25)})
	if !errors.Is(err, errStop) {
		t.Fatalf("mid-iteration cancel: got %v, want errStop", err)
	}
	// The instance must remain serviceable after an aborted request.
	res, err := in.Solve(b, Request{Seed: 1})
	if err != nil {
		t.Fatalf("solve after aborted request: %v", err)
	}
	if res.Residual > defaultTol {
		t.Fatalf("residual %g above tolerance after aborted request", res.Residual)
	}
}

// TestChebyshevCancelsMidIteration covers the same contract on the
// Chebyshev iteration path.
func TestChebyshevCancelsMidIteration(t *testing.T) {
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{
		Mode: ModeUniversal, Seed: 1, Chebyshev: true, Tol: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.RandomBVector(g.N(), 8)
	if _, err := in.Solve(b, Request{Seed: 1, Cancel: countdown(25)}); !errors.Is(err, errStop) {
		t.Fatalf("chebyshev mid-iteration cancel: got %v, want errStop", err)
	}
}

// TestPrepareCancelsAtRoundBarrier cancels during ModeCongest preparation,
// whose charged BFS crosses round barriers — the cancellation must surface
// as the hook's error through CatchCancel, not a panic.
func TestPrepareCancelsAtRoundBarrier(t *testing.T) {
	g := graph.Grid(6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareInstance(ctx, g, PrepareConfig{Mode: ModeCongest, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled prepare: got %v, want context.Canceled", err)
	}
}

// TestInstanceRequestsAreIsolated solves twice with the same request and
// checks bit-identical results — a request must never mutate shared state.
func TestInstanceRequestsAreIsolated(t *testing.T) {
	in, b := prepared(t, ModeUniversal, 3)
	r1, err := in.Solve(b, Request{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := in.Solve(b, Request{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Iterations != r2.Iterations || r1.Rounds != r2.Rounds || r1.Residual != r2.Residual {
		t.Fatalf("repeat request diverged: (%d,%d,%g) vs (%d,%d,%g)",
			r1.Iterations, r1.Rounds, r1.Residual, r2.Iterations, r2.Rounds, r2.Residual)
	}
	for i := range r1.X {
		if r1.X[i] != r2.X[i] {
			t.Fatalf("repeat request diverged at X[%d]", i)
		}
	}
}

// TestInstanceSizeBytes sanity-checks the cache-budget estimator: positive,
// and monotone in the graph size.
func TestInstanceSizeBytes(t *testing.T) {
	small, _ := prepared(t, ModeUniversal, 1)
	gBig := graph.Grid(12, 12)
	big, err := PrepareInstance(context.Background(), gBig, PrepareConfig{Mode: ModeUniversal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if small.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", small.SizeBytes())
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("size not monotone: grid(12) %d <= grid(6) %d", big.SizeBytes(), small.SizeBytes())
	}
}

// TestToleranceRule pins the one tolerance rule on every solve entry
// point: 0 selects the default, and any other value outside (0, 1) is
// ErrBadTol.
func TestToleranceRule(t *testing.T) {
	in, b := prepared(t, ModeUniversal, 1)
	g := in.Graph()
	paths := []struct {
		name string
		run  func(tol float64) error
	}{
		{"PrepareInstance", func(tol float64) error {
			_, err := PrepareInstance(context.Background(), g, PrepareConfig{Tol: tol, Seed: 1})
			return err
		}},
		{"Instance.Solve", func(tol float64) error {
			_, err := in.Solve(b, Request{Tol: tol, Seed: 1})
			return err
		}},
		{"SolveOnce", func(tol float64) error {
			_, err := SolveOnce(g, b, PrepareConfig{Tol: tol, Seed: 1})
			return err
		}},
	}
	for _, tc := range []struct {
		tol float64
		ok  bool
	}{{0, true}, {-1, false}, {1, false}, {2, false}, {1e-6, true}} {
		for _, p := range paths {
			err := p.run(tc.tol)
			if tc.ok && err != nil {
				t.Errorf("%s(tol=%g): %v", p.name, tc.tol, err)
			}
			if !tc.ok && !errors.Is(err, ErrBadTol) {
				t.Errorf("%s(tol=%g): got %v, want ErrBadTol", p.name, tc.tol, err)
			}
		}
	}
}

// TestInstanceSizeBytesGrowsLinearly pins a prepared instance's size to
// O(n + m + Σ members): quadrupling a grid from 1,600 to 6,400 nodes may
// multiply SizeBytes by at most 4.5. Part trees that kept host-sized
// arrays grew as k·n, about n^1.5, and read 7.46 here.
func TestInstanceSizeBytesGrowsLinearly(t *testing.T) {
	size := func(side int) int64 {
		in, err := PrepareInstance(context.Background(), graph.Grid(side, side), PrepareConfig{Tol: 1e-6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return in.SizeBytes()
	}
	small, large := size(40), size(80)
	if r := float64(large) / float64(small); r > 4.5 {
		t.Fatalf("SizeBytes grew %.2f× from grid-1600 (%d) to grid-6400 (%d), want at most 4.5×", r, small, large)
	}
}

// TestModeCongestGlobalTree pins the global tree a ModeCongest instance
// keeps, which no experiment, workload or trace reaches: the charged BFS's
// tree, its members the root and then each wave sorted by node ID. A
// sequential BFS from the same root lists them in queue order and picks
// other parents, so a swap of the two would change this fingerprint
// without moving any solve's iterations, rounds or messages.
func TestModeCongestGlobalTree(t *testing.T) {
	in, err := PrepareInstance(context.Background(), graph.RandomRegular(64, 4, 5), PrepareConfig{Mode: ModeCongest, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := in.tree
	members, edges := 0, 0
	for i, v := range tr.Members {
		members += (i + 1) * v
		edges += (i + 1) * int(tr.ParentEdge[i])
		if i > 1 && tr.Depth[i] == tr.Depth[i-1] && v < tr.Members[i-1] {
			t.Fatalf("member %d (node %d) follows node %d in its wave", i, v, tr.Members[i-1])
		}
	}
	got := [...]int{len(tr.Members), tr.Members[0], int(slices.Max(tr.Depth)), in.SetupMetrics().TotalRounds(), members, edges}
	want := [...]int{64, 42, 5, 6, 77544, 125649}
	if got != want {
		t.Fatalf("members, root, height, setup rounds, Σ(i+1)·Members[i], Σ(i+1)·ParentEdge[i] = %v, want %v", got, want)
	}
}
