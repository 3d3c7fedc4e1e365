package faultinject

import (
	"math"
	"testing"

	"distlap/internal/simtrace"
)

func TestZeroSpecDisabled(t *testing.T) {
	p, err := New(Spec{Seed: 42})
	if err != nil {
		t.Fatalf("New(zero spec): %v", err)
	}
	if p != nil {
		t.Fatalf("zero spec compiled to a non-nil plan")
	}
	// The nil plan must answer every query with "reliable".
	if p.Crashed(3, 100) {
		t.Errorf("nil plan crashed a node")
	}
	if v := p.Link(5, 7); v.Fate != FateDeliver {
		t.Errorf("nil plan Link fate = %v", v.Fate)
	}
	if v := p.Clique(5, 1, 2); v.Fate != FateDeliver {
		t.Errorf("nil plan Clique fate = %v", v.Fate)
	}
}

func TestValidation(t *testing.T) {
	cases := []Spec{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{DupProb: 2},
		{CrashProb: -1},
		{DropProb: 0.5, DupProb: 0.4, DelayProb: 0.3}, // sums to 1.2
		{DelayProb: 0.1, MaxDelay: -1},
		{CrashProb: 0.1, CrashWindow: -2},
		{DropProb: math.NaN(), DupProb: 0.5}, // NaN passes a p < 0 || p > 1 check
		{DupProb: math.NaN()},                // ... and would disable the plan silently
	}
	for i, s := range cases {
		if _, err := New(s); err == nil {
			t.Errorf("case %d: spec %+v validated", i, s)
		}
	}
}

func TestDecisionsArePure(t *testing.T) {
	spec := Spec{
		Seed: 7, DropProb: 0.1, DupProb: 0.05, DelayProb: 0.05, MaxDelay: 4,
		CrashProb: 0.2, FlakyLinkProb: 0.3, FlakyDropProb: 0.5,
	}
	a := MustNew(spec)
	b := MustNew(spec)
	for round := 1; round <= 50; round++ {
		for de := 0; de < 40; de++ {
			va, vb := a.Link(round, de), b.Link(round, de)
			if va != vb {
				t.Fatalf("Link(%d,%d) differs across identical plans: %+v vs %+v", round, de, va, vb)
			}
			// Repeated queries on the same plan must agree (stateless).
			if again := a.Link(round, de); again != va {
				t.Fatalf("Link(%d,%d) not stable on one plan", round, de)
			}
		}
		for v := 0; v < 20; v++ {
			if a.Crashed(v, round) != b.Crashed(v, round) {
				t.Fatalf("Crashed(%d,%d) differs across identical plans", v, round)
			}
		}
		if va, vb := a.Clique(round, 3, 9), b.Clique(round, 3, 9); va != vb {
			t.Fatalf("Clique differs across identical plans")
		}
	}
}

func TestCrashIsPermanent(t *testing.T) {
	p := MustNew(Spec{Seed: 11, CrashProb: 0.5, CrashWindow: 16})
	for v := 0; v < 100; v++ {
		crashed := false
		for round := 1; round <= 64; round++ {
			now := p.Crashed(v, round)
			if crashed && !now {
				t.Fatalf("node %d recovered at round %d: crash-stop must be permanent", v, round)
			}
			crashed = now
		}
	}
}

func TestCrashFractionTracksProbability(t *testing.T) {
	p := MustNew(Spec{Seed: 23, CrashProb: 0.25, CrashWindow: 4})
	const n = 4000
	crashed := 0
	for v := 0; v < n; v++ {
		if p.Crashed(v, 1000) { // far past every crash window
			crashed++
		}
	}
	got := float64(crashed) / n
	if math.Abs(got-0.25) > 0.03 {
		t.Errorf("crash fraction %g, want ≈ 0.25", got)
	}
}

func TestFateDistribution(t *testing.T) {
	p := MustNew(Spec{Seed: 99, DropProb: 0.10, DupProb: 0.05, DelayProb: 0.05, MaxDelay: 3})
	counts := map[Fate]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := p.Link(1+i/200, i%200)
		counts[v.Fate]++
		if v.Fate == FateDelay && (v.Delay < 1 || v.Delay > 3) {
			t.Fatalf("delay %d outside [1, 3]", v.Delay)
		}
		if v.Fate != FateDelay && v.Delay != 0 {
			t.Fatalf("non-delay verdict carries delay %d", v.Delay)
		}
	}
	check := func(f Fate, want float64) {
		got := float64(counts[f]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("fate %v frequency %g, want ≈ %g", f, got, want)
		}
	}
	check(FateDrop, 0.10)
	check(FateDup, 0.05)
	check(FateDelay, 0.05)
	check(FateDeliver, 0.80)
}

func TestFlakyLinksAreASubset(t *testing.T) {
	p := MustNew(Spec{Seed: 5, FlakyLinkProb: 0.2, FlakyDropProb: 1.0})
	const edges = 2000
	flaky := 0
	for e := 0; e < edges; e++ {
		isFlaky := p.FlakyLink(e)
		if isFlaky {
			flaky++
		}
		for round := 1; round <= 8; round++ {
			for dir := 0; dir < 2; dir++ {
				v := p.Link(round, 2*e+dir)
				if isFlaky && v.Fate != FateDrop {
					t.Fatalf("flaky edge %d delivered with FlakyDropProb=1", e)
				}
				if !isFlaky && v.Fate != FateDeliver {
					t.Fatalf("healthy edge %d faulted with only flaky faults enabled", e)
				}
			}
		}
	}
	got := float64(flaky) / edges
	if math.Abs(got-0.2) > 0.03 {
		t.Errorf("flaky fraction %g, want ≈ 0.2", got)
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := MustNew(Spec{Seed: 1, DropProb: 0.5})
	b := MustNew(Spec{Seed: 2, DropProb: 0.5})
	same := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if a.Link(1+i/50, i%50).Fate == b.Link(1+i/50, i%50).Fate {
			same++
		}
	}
	// Independent 50/50 decisions agree about half the time; identical
	// streams would agree always.
	if same > trials*3/4 {
		t.Errorf("seeds 1 and 2 agree on %d/%d decisions: streams not independent", same, trials)
	}
}

func TestFateString(t *testing.T) {
	for f, want := range map[Fate]string{
		FateDeliver: "deliver", FateDrop: "drop", FateDup: "dup", FateDelay: "delay",
	} {
		if f.String() != want {
			t.Errorf("Fate(%d).String() = %q, want %q", int(f), f.String(), want)
		}
	}
}

// BenchmarkLinkEdge times one send's fate under the faulty-hybrid
// workload's spec (2 % drops, 2 % flaky links) on a compiled Link over
// grid-256's 256 nodes and 480 edges: every directed edge sends once per
// round, rounds in order, as an Exchange does.
func BenchmarkLinkEdge(b *testing.B) {
	const nodes, edges = 256, 480
	l := NewLink(MustNew(Spec{Seed: 3, DropProb: 0.02, FlakyLinkProb: 0.02}), simtrace.Nop{}, nodes, edges)
	retries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		de := i % (2 * edges)
		if l.Edge(1+i/(2*edges), de, de/2%nodes).Action == Retry {
			retries++
		}
	}
	if b.N >= 100_000 && retries == 0 {
		b.Fatal("no send was dropped")
	}
}
