package core

// Tests for the self-checking recovery loop (DESIGN.md §9). The contract
// under test: a faulty solve never hangs, never returns a silently wrong
// vector (every returned Residual is re-verified here against a local
// true-residual computation), reports its attempts/faults/degradation in
// Metrics, and is byte-identical across repeats.

import (
	"context"
	"errors"
	"math"
	"testing"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/linalg"
	"distlap/internal/simtrace"
)

// trueResidual recomputes ‖b − Lx‖/‖b‖ with mean-centered b — the same
// oracle the recovery loop uses, rebuilt independently so the test does not
// trust the code under test.
func trueResidual(t *testing.T, g *graph.Graph, b, x []float64) float64 {
	t.Helper()
	bc := linalg.Copy(b)
	linalg.CenterMean(bc)
	bn := linalg.Norm2(bc)
	lx, err := linalg.NewLaplacian(g).MatVec(x)
	if err != nil {
		t.Fatalf("MatVec: %v", err)
	}
	for i := range lx {
		lx[i] = bc[i] - lx[i]
	}
	return linalg.Norm2(lx) / bn
}

// faultySolve runs one faulty solve against a fresh instance and enforces
// the never-silently-wrong invariant on whatever comes back.
func faultySolve(t *testing.T, mode Mode, spec faultinject.Spec, tol float64) (*Result, error) {
	t.Helper()
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: mode, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.RandomBVector(g.N(), 11)
	res, err := in.Solve(b, Request{Seed: 7, Tol: tol, Faults: faultinject.MustNew(spec)})
	if res != nil {
		verified := trueResidual(t, g, b, res.X)
		if math.Abs(verified-res.Residual) > 1e-12 {
			t.Fatalf("reported residual %g is not the verified residual %g", res.Residual, verified)
		}
		target := tol
		if res.Metrics.Degraded {
			target = 0.5 // the ladder's outermost cap
		}
		if verified > target {
			t.Fatalf("silently wrong result: verified residual %g above target %g (degraded=%v)",
				verified, target, res.Metrics.Degraded)
		}
	}
	return res, err
}

// TestRecoveryUnderModestDrop is the acceptance criterion: under ≤5%
// message drop the solve must converge to ε or report Degraded — and in
// either case terminate with a verified residual.
func TestRecoveryUnderModestDrop(t *testing.T) {
	for _, mode := range []Mode{ModeUniversal, ModeBaseline, ModeHybrid} {
		res, err := faultySolve(t, mode, faultinject.Spec{Seed: 21, DropProb: 0.05}, 1e-6)
		if err != nil {
			// An error is an allowed outcome only if it is loud — but under
			// 5% drop with retries the ladder is expected to land somewhere.
			t.Fatalf("%s: recovery errored under 5%% drop: %v", mode, err)
		}
		if res.Metrics.Attempts < 1 {
			t.Fatalf("%s: Attempts=%d, want >=1", mode, res.Metrics.Attempts)
		}
		if res.Metrics.FaultsObserved == 0 {
			t.Fatalf("%s: no faults observed at DropProb=0.05", mode)
		}
	}
}

// TestRecoveryIsDeterministic repeats a faulty solve and demands identical
// results, attempts, fault tallies, and round counts.
func TestRecoveryIsDeterministic(t *testing.T) {
	spec := faultinject.Spec{Seed: 9, DropProb: 0.03, DupProb: 0.02, DelayProb: 0.03}
	resA, errA := faultySolve(t, ModeUniversal, spec, 1e-6)
	resB, errB := faultySolve(t, ModeUniversal, spec, 1e-6)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("runs diverged: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if resA.Metrics.Attempts != resB.Metrics.Attempts ||
		resA.Metrics.FaultsObserved != resB.Metrics.FaultsObserved ||
		resA.Metrics.Degraded != resB.Metrics.Degraded ||
		resA.Rounds != resB.Rounds ||
		resA.Residual != resB.Residual {
		t.Fatalf("faulty solves diverged:\n  %+v res=%g rounds=%d\n  %+v res=%g rounds=%d",
			resA.Metrics, resA.Residual, resA.Rounds, resB.Metrics, resB.Residual, resB.Rounds)
	}
	for i := range resA.X {
		if resA.X[i] != resB.X[i] {
			t.Fatalf("solution vectors diverged at %d: %g vs %g", i, resA.X[i], resB.X[i])
		}
	}
}

// TestRecoveryNeverHangsUnderHeavyFaults pushes fault rates far past
// recoverability: the solve must terminate — with a result or a loud
// error — inside the test's own deadline, courtesy of the engines' round
// budgets and the ladder's attempt caps.
func TestRecoveryNeverHangsUnderHeavyFaults(t *testing.T) {
	spec := faultinject.Spec{Seed: 13, DropProb: 0.45, DelayProb: 0.3, CrashProb: 0.2}
	res, err := faultySolve(t, ModeUniversal, spec, 1e-8)
	if err == nil && !res.Metrics.Degraded && res.Residual > 1e-8 {
		t.Fatalf("non-degraded result above tolerance: %g", res.Residual)
	}
	if err != nil && err.Error() == "" {
		t.Fatalf("empty error from exhausted recovery")
	}
}

// TestRecoveryDegradesNotLies forces every full-tolerance attempt to fail
// (an unreachable tolerance floor is simulated by heavy faults and a tiny
// iteration cap) and checks the Degraded path reports itself.
func TestRecoveryDegradesNotLies(t *testing.T) {
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: ModeUniversal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.RandomBVector(g.N(), 3)
	spec := faultinject.Spec{Seed: 31, DropProb: 0.25, DelayProb: 0.2}
	res, err := in.Solve(b, Request{
		Seed: 2, Tol: 1e-10, MaxIter: 60,
		Faults: faultinject.MustNew(spec),
	})
	if err != nil {
		// Full exhaustion is acceptable; silence is not.
		t.Logf("recovery exhausted (acceptable): %v", err)
		return
	}
	verified := trueResidual(t, g, b, res.X)
	if verified > 1e-10 && !res.Metrics.Degraded {
		t.Fatalf("residual %g above requested 1e-10 but Degraded not set", verified)
	}
	if res.Metrics.Attempts < 2 {
		t.Fatalf("degraded result after %d attempts — ladder should have retried first", res.Metrics.Attempts)
	}
}

// TestRecoveryCancelAborts threads a countdown Cancel through a faulty
// request: the recovery loop must stop retrying and surface the hook's
// error instead of burning the whole ladder against a dead deadline.
func TestRecoveryCancelAborts(t *testing.T) {
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: ModeUniversal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.RandomBVector(g.N(), 3)
	_, err = in.Solve(b, Request{
		Seed: 2, Cancel: countdown(30),
		Faults: faultinject.MustNew(faultinject.Spec{Seed: 17, DropProb: 0.3}),
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("cancelled faulty solve: got %v, want errStop", err)
	}
}

// TestRecoveryTracesAttempts checks the observability contract: attempt
// gauges and counters land in the request's collector.
func TestRecoveryTracesAttempts(t *testing.T) {
	g := graph.Grid(6, 6)
	in, err := PrepareInstance(context.Background(), g, PrepareConfig{Mode: ModeUniversal, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b := linalg.RandomBVector(g.N(), 3)
	tr := simtrace.NewInMemory()
	res, err := in.Solve(b, Request{
		Seed: 7, Tol: 1e-6, Trace: tr,
		Faults: faultinject.MustNew(faultinject.Spec{Seed: 21, DropProb: 0.05}),
	})
	if err != nil {
		t.Fatalf("traced faulty solve: %v", err)
	}
	if got := tr.CounterValue("recovery.attempts"); got != int64(res.Metrics.Attempts) {
		t.Fatalf("recovery.attempts counter %d != Metrics.Attempts %d", got, res.Metrics.Attempts)
	}
	samples := tr.GaugeSeries("recovery.attempt")
	if len(samples) != res.Metrics.Attempts {
		t.Fatalf("%d attempt gauges for %d attempts", len(samples), res.Metrics.Attempts)
	}
}

// TestReliablePathUnchangedByRecoveryCode: a nil fault plan must produce
// byte-identical results to a build that never heard of recovery.
func TestReliablePathUnchangedByRecoveryCode(t *testing.T) {
	in, b := prepared(t, ModeUniversal, 1)
	res, err := in.Solve(b, Request{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Attempts != 0 || res.Metrics.FaultsObserved != 0 || res.Metrics.Degraded {
		t.Fatalf("reliable solve carries recovery metrics: %+v", res.Metrics)
	}
}
