package distlap_test

// Observability regression tests: attaching a trace collector must be
// side-effect-free (the Nop, InMemory and JSONL sinks all leave the
// measured execution bit-identical to an untraced run), JSONL streams must
// be byte-stable across same-seed runs, and the recorded per-phase rounds
// must sum exactly to the engine totals — the accounting identity
// cmd/simtrace enforces.

import (
	"bytes"
	"strings"
	"testing"

	"distlap"
	"distlap/internal/linalg"
)

func traceGraph() (*distlap.Graph, []float64) {
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g := f.Make(36)
			return g, linalg.RandomBVector(g.N(), 13)
		}
	}
	panic("no grid family")
}

// solveTraced runs one solve with the given collector (nil = none).
func solveTraced(t *testing.T, mode distlap.Mode, tr distlap.Collector) *distlap.Result {
	t.Helper()
	g, b := traceGraph()
	opts := []distlap.Option{distlap.WithMode(mode), distlap.WithSeed(6)}
	if tr != nil {
		opts = append(opts, distlap.WithTrace(tr))
	}
	res, err := distlap.NewSolver(opts...).Solve(g, b)
	if err != nil {
		t.Fatalf("solve (mode %v): %v", mode, err)
	}
	return res
}

// TestTraceIsPassive pins that no collector, NopTrace and an InMemory
// collector all yield bit-identical solves: same solution, same iteration
// count, same measured rounds.
func TestTraceIsPassive(t *testing.T) {
	for _, mode := range []distlap.Mode{distlap.ModeUniversal, distlap.ModeHybrid} {
		bare := solveTraced(t, mode, nil)
		nop := solveTraced(t, mode, distlap.NopTrace())
		mem := solveTraced(t, mode, distlap.NewInMemoryTrace())
		for _, o := range []*distlap.Result{nop, mem} {
			if o.Iterations != bare.Iterations || o.Rounds != bare.Rounds {
				t.Errorf("mode %v: traced run diverges: (%d,%d) vs bare (%d,%d)",
					mode, o.Iterations, o.Rounds, bare.Iterations, bare.Rounds)
			}
			for i := range bare.X {
				if o.X[i] != bare.X[i] {
					t.Fatalf("mode %v: X[%d] diverges under tracing", mode, i)
				}
			}
		}
	}
}

// TestJSONLByteStableAcrossRuns pins the sink's determinism contract: two
// identically-seeded solves stream byte-identical JSONL (including the
// Flush aggregates).
func TestJSONLByteStableAcrossRuns(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := distlap.NewJSONLTrace(&buf)
		solveTraced(t, distlap.ModeUniversal, tr)
		if err := tr.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed JSONL streams differ: %d vs %d bytes", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("empty trace stream")
	}
}

// TestPhaseRoundsSumToTotal pins the accounting identity in every mode:
// exclusive per-phase rounds (plus untracked) sum exactly to the measured
// rounds and the engine totals — in ModeCongest too, whose charged BFS runs
// on Prepare's engine and is folded into the one-shot result. A traced
// one-shot solve opens exactly one top-level prepare span and one
// top-level solve span.
func TestPhaseRoundsSumToTotal(t *testing.T) {
	for _, mode := range modes() {
		tr := distlap.NewInMemoryTrace()
		res := solveTraced(t, mode, tr)
		if open := tr.OpenSpans(); open != 0 {
			t.Errorf("mode %v: %d spans left open", mode, open)
		}
		sum := 0
		top := map[string]int{}
		for _, ph := range tr.Phases() {
			sum += ph.Rounds
			if ph.Path != "" && !strings.Contains(ph.Path, "/") {
				top[ph.Path] += ph.Count
			}
		}
		if len(top) != 2 || top["prepare"] != 1 || top["solve"] != 1 {
			t.Errorf("mode %v: top-level spans %v, want one prepare and one solve", mode, top)
		}
		if sum != res.Rounds {
			t.Errorf("mode %v: phase rounds sum %d != measured rounds %d", mode, sum, res.Rounds)
		}
		if sum != tr.TotalRounds() {
			t.Errorf("mode %v: phase rounds sum %d != engine totals %d", mode, sum, tr.TotalRounds())
		}
		if got := tr.PhaseRounds("solve/matvec"); got <= 0 {
			t.Errorf("mode %v: expected positive matvec rounds, got %d", mode, got)
		}
	}
}

// TestResultCarriesPhases pins that a traced solve surfaces its per-phase
// breakdown on Result.Metrics without any extra plumbing.
func TestResultCarriesPhases(t *testing.T) {
	res := solveTraced(t, distlap.ModeUniversal, distlap.NewInMemoryTrace())
	if len(res.Metrics.Phases) == 0 {
		t.Fatal("traced solve reported no phases on Result.Metrics")
	}
	found := false
	for _, ph := range res.Metrics.Phases {
		if ph.Path == "solve/reduce" && ph.Rounds > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no solve/reduce phase with positive rounds in %v", res.Metrics.Phases)
	}
	untraced := solveTraced(t, distlap.ModeUniversal, nil)
	if len(untraced.Metrics.Phases) != 0 {
		t.Errorf("untraced solve reports phases: %v", untraced.Metrics.Phases)
	}
}
