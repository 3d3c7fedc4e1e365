package core

// Tests for the core Instance machinery: mid-iteration cancellation via a
// countdown Cancel hook (both the PCG and Chebyshev paths and the round-
// barrier path through the congest engine), request isolation, and the
// size estimator's sanity.

import (
	"context"
	"errors"
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
	if res.Residual > in.Tol() {
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
