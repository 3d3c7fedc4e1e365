package distlap_test

// Tests for the prepared-Instance API: the amortization contract (setup
// phases appear exactly once, under Prepare — never in a request trace),
// exact parity with the one-shot path when the request seed is pinned,
// request-level determinism of the derived seeds, concurrent solves on one
// shared instance (run under -race in CI), and context cancellation.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"distlap"
	"distlap/internal/linalg"
)

// setupPhases are the phase names only preparation may charge or trace.
var setupPhases = []string{"prepare", "comm-setup", "precond-setup", "spectral-bounds"}

func countSetupPhases(t *testing.T, tr *distlap.Metrics) int {
	t.Helper()
	n := 0
	for _, ph := range tr.Phases {
		for _, s := range setupPhases {
			if strings.Contains(ph.Path, s) {
				n += ph.Count
			}
		}
	}
	return n
}

func phasesContain(phases []distlap.PhaseStat, name string) bool {
	for _, ph := range phases {
		if strings.Contains(ph.Path, name) {
			return true
		}
	}
	return false
}

// TestInstanceSolveTraceHasNoSetup is the amortization acceptance check:
// Prepare's trace contains the setup spans, and a request's trace contains
// none of them — setup ran exactly once, under Prepare.
func TestInstanceSolveTraceHasNoSetup(t *testing.T) {
	g, b := parityGraph()
	prep := distlap.NewInMemoryTrace()
	inst, err := distlap.NewSolver(distlap.WithSeed(3), distlap.WithTrace(prep)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !phasesContain(prep.Phases(), "prepare") || !phasesContain(prep.Phases(), "precond-setup") {
		t.Fatalf("prepare trace missing setup spans: %+v", prep.Phases())
	}

	req := distlap.NewInMemoryTrace()
	res, err := inst.Solve(context.Background(), b, distlap.WithRequestTrace(req))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Phases == nil {
		t.Fatal("request trace produced no phase table")
	}
	if n := countSetupPhases(t, &res.Metrics); n != 0 {
		t.Fatalf("request trace charged %d setup phases: %+v", n, res.Metrics.Phases)
	}
	if !phasesContain(res.Metrics.Phases, "solve") {
		t.Fatalf("request trace missing the solve span: %+v", res.Metrics.Phases)
	}
}

// TestInstanceSolveBatchChargesSetupZeroTimes verifies over the simtrace
// phase table that a k-RHS batch charges setup zero times: one shared
// collector across the whole batch records k solve spans and no setup span.
func TestInstanceSolveBatchChargesSetupZeroTimes(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(3)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	bs := [][]float64{b, linalg.RandomBVector(g.N(), 11), linalg.RandomBVector(g.N(), 12)}
	tr := distlap.NewInMemoryTrace()
	// The batch runs sequentially, so one collector across all RHS is safe
	// and lets the phase table count spans over the whole batch.
	if _, err := inst.SolveBatch(context.Background(), bs, distlap.WithRequestTrace(tr)); err != nil {
		t.Fatal(err)
	}
	solves, setups := 0, 0
	for _, ph := range tr.Phases() {
		if ph.Path == "solve" {
			solves += ph.Count
		}
		for _, s := range setupPhases {
			if strings.Contains(ph.Path, s) {
				setups += ph.Count
			}
		}
	}
	if solves != len(bs) {
		t.Errorf("batch of %d recorded %d solve spans", len(bs), solves)
	}
	if setups != 0 {
		t.Errorf("batch charged setup %d times, want 0: %+v", setups, tr.Phases())
	}
}

// TestInstanceSolveParityWithOneShot pins the prepared path against the
// one-shot Solver bit-for-bit in every mode: with the request seed pinned
// to the Solver seed, the fresh request engine replays the exact one-shot
// execution (setup consumes no scheduling randomness). In ModeCongest the
// one-shot run additionally pays the charged BFS inside Solve, which the
// instance paid once under Prepare — the amortization itself — so there
// the round ledger must balance: request rounds + setup rounds = one-shot
// rounds.
func TestInstanceSolveParityWithOneShot(t *testing.T) {
	g, b := parityGraph()
	for _, mode := range modes() {
		sv := distlap.NewSolver(distlap.WithMode(mode), distlap.WithSeed(7))
		want, err := sv.Solve(g, b)
		if err != nil {
			t.Fatalf("%s: one-shot: %v", mode, err)
		}
		if want.Metrics.TotalRounds() != want.Rounds {
			t.Errorf("%s: Metrics.TotalRounds %d != Rounds %d", mode, want.Metrics.TotalRounds(), want.Rounds)
		}
		if mode == distlap.ModeHybrid && want.Metrics.NCC == nil {
			t.Errorf("hybrid: Metrics.NCC not populated")
		}
		inst, err := sv.Prepare(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: prepare: %v", mode, err)
		}
		got, err := inst.Solve(context.Background(), b, distlap.WithRequestSeed(7))
		if err != nil {
			t.Fatalf("%s: instance solve: %v", mode, err)
		}
		setup := inst.SetupMetrics()
		if mode == distlap.ModeCongest {
			if setup.TotalRounds() == 0 {
				t.Errorf("congest: expected Prepare to pay the charged BFS, setup rounds = 0")
			}
			if got.Rounds+setup.TotalRounds() != want.Rounds {
				t.Errorf("congest: round ledger off: %d request + %d setup != %d one-shot",
					got.Rounds, setup.TotalRounds(), want.Rounds)
			}
			// Everything but the setup-round attribution must still match.
			got = cloneResultWithRounds(got, want.Rounds)
		} else if setup.TotalRounds() != 0 {
			t.Errorf("%s: supported-mode setup charged %d rounds, want 0", mode, setup.TotalRounds())
		}
		sameResult(t, string(mode)+"/instance-vs-oneshot", got, want)
	}
}

// cloneResultWithRounds copies r with the round count replaced, so parity
// helpers can compare everything else bit-for-bit.
func cloneResultWithRounds(r *distlap.Result, rounds int) *distlap.Result {
	c := *r
	c.Rounds = rounds
	return &c
}

// TestInstanceBatchMatchesSolve pins the derived-seed contract:
// SolveBatch(bs)[0] uses the same derived request seed as Solve(bs[0]), so
// the two are bit-identical; a second identical RHS at index 1 derives a
// different stream (same solution up to scheduling, but an independent
// request).
func TestInstanceBatchMatchesSolve(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(5)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	single, err := inst.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := inst.SolveBatch(context.Background(), [][]float64{b, b})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "batch[0]-vs-solve", batch[0], single)
}

// TestInstanceConcurrentSolves runs parallel solves against one shared
// prepared instance, each with its own trace collector — the concurrency
// contract CI verifies under -race. Every goroutine must reproduce the
// sequential reference bit-for-bit.
func TestInstanceConcurrentSolves(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(2)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*distlap.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := distlap.NewInMemoryTrace()
			results[w], errs[w] = inst.Solve(context.Background(), b, distlap.WithRequestTrace(tr))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		sameResult(t, "concurrent-vs-sequential", results[w], want)
	}
}

// TestInstanceCancelledContext verifies both halves of the lifecycle refuse
// a dead context with the context's own error, not a panic.
func TestInstanceCancelledContext(t *testing.T) {
	g, b := parityGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv := distlap.NewSolver()
	if _, err := sv.Prepare(ctx, g); err != context.Canceled {
		t.Errorf("Prepare on cancelled ctx: got %v, want context.Canceled", err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Solve(ctx, b); err != context.Canceled {
		t.Errorf("Solve on cancelled ctx: got %v, want context.Canceled", err)
	}
	if _, err := inst.MST(ctx); err != context.Canceled {
		t.Errorf("MST on cancelled ctx: got %v, want context.Canceled", err)
	}
}

// TestInstanceFlowAndMSTParity pins the instance application methods
// against their one-shot counterparts with the request seed pinned.
func TestInstanceFlowAndMSTParity(t *testing.T) {
	g, _ := parityGraph()
	sv := distlap.NewSolver(distlap.WithSeed(9))
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	wantFlow, err := sv.Flow(g, 0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	gotFlow, err := inst.Flow(context.Background(), 0, g.N()-1, distlap.WithRequestSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if gotFlow.Resistance != wantFlow.Resistance || gotFlow.Iterations != wantFlow.Iterations {
		t.Errorf("flow diverges: (%v,%d) vs (%v,%d)",
			gotFlow.Resistance, gotFlow.Iterations, wantFlow.Resistance, wantFlow.Iterations)
	}
	wantMST, err := sv.MinimumSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	gotMST, err := inst.MST(context.Background(), distlap.WithRequestSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if gotMST.Weight != wantMST.Weight || gotMST.Rounds != wantMST.Rounds {
		t.Errorf("mst diverges: (%d,%d) vs (%d,%d)",
			gotMST.Weight, gotMST.Rounds, wantMST.Weight, wantMST.Rounds)
	}
	if wantMST.Metrics.Congest.Rounds != wantMST.Rounds {
		t.Errorf("mst Metrics.Congest.Rounds %d != Rounds %d", wantMST.Metrics.Congest.Rounds, wantMST.Rounds)
	}
}

// TestInstanceChebyshev covers the Chebyshev instance path: spectral bounds
// cached at Prepare, per-request iteration with no setup spans.
func TestInstanceChebyshev(t *testing.T) {
	g, b := parityGraph()
	sv := distlap.NewSolver(distlap.WithSeed(4), distlap.WithChebyshev(0, 0), distlap.WithEps(1e-6))
	want, err := sv.Solve(g, b)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sv.Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	tr := distlap.NewInMemoryTrace()
	got, err := inst.Solve(context.Background(), b, distlap.WithRequestSeed(4), distlap.WithRequestTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "chebyshev-instance", got, want)
	if phasesContain(tr.Phases(), "spectral-bounds") {
		t.Errorf("request recomputed spectral bounds: %+v", tr.Phases())
	}
}
