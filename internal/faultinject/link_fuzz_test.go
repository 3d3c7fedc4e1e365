package faultinject

import (
	"math/rand"
	"testing"

	"distlap/internal/simtrace"
)

// FuzzLinkMatchesPlan holds the compiled Link to the plan it compiles: for
// any Spec, New either rejects it or returns a plan whose Link, over a
// small network, gives every send exactly the outcome the plan's Crashed,
// Link and Clique imply. The probes visit random rounds out of order, so
// the Link's per-round keys are re-derived in both directions. The seed
// corpus (testdata/fuzz/FuzzLinkMatchesPlan) covers crash, flaky, drop,
// dup, delay and all of them mixed.
func FuzzLinkMatchesPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, drop, dup, delay float64, maxDelay int,
		crash float64, crashWindow int, flaky, flakyDrop float64, probe int64) {
		p, err := New(Spec{
			Seed: seed, DropProb: drop, DupProb: dup, DelayProb: delay, MaxDelay: maxDelay,
			CrashProb: crash, CrashWindow: crashWindow, FlakyLinkProb: flaky, FlakyDropProb: flakyDrop,
		})
		if err != nil {
			return
		}
		const nodes, edges = 23, 71
		l := NewLink(p, simtrace.Nop{}, nodes, edges)
		if l.Faulty() != (p != nil) {
			t.Fatalf("Faulty() = %v for plan %v", l.Faulty(), p)
		}
		if p == nil {
			return // engines never consult a reliable Link per send
		}
		// outcome is what the plan implies for a send to node to.
		outcome := func(round, to, key int, v Verdict) Outcome {
			at := site{int32(round), int32(key), int32(to)}
			if p.Crashed(to, round) {
				return Outcome{Action: Lost, at: at}
			}
			return Outcome{Action: actions[v.Fate], Delay: v.Delay, at: at}
		}
		rng := rand.New(rand.NewSource(probe))
		for i := 0; i < 256; i++ {
			round := 1 + rng.Intn(200)
			if v := rng.Intn(nodes); l.Crashed(v, round) != p.Crashed(v, round) {
				t.Fatalf("round %d: Link.Crashed(%d) = %v, Plan.Crashed = %v", round, v, l.Crashed(v, round), p.Crashed(v, round))
			}
			de, to := rng.Intn(2*edges), rng.Intn(nodes)
			if got, want := l.Edge(round, de, to), outcome(round, to, de, p.Link(round, de)); got != want {
				t.Fatalf("round %d: Edge(%d → %d) = %+v, the plan implies %+v", round, de, to, got, want)
			}
			from, to := rng.Intn(nodes), rng.Intn(nodes)
			if got, want := l.Clique(round, from, to), outcome(round, to, to, p.Clique(round, from, to)); got != want {
				t.Fatalf("round %d: Clique(%d → %d) = %+v, the plan implies %+v", round, from, to, got, want)
			}
		}
	})
}
