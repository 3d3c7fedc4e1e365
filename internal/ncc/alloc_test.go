//go:build !race

// Allocation-regression guards for Deliver's pooled scheduling loop. The
// race runtime changes allocation behaviour, so these run only in the plain
// test pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package ncc

import (
	"testing"

	"distlap/internal/faultinject"
)

// deliverAllocs warms nw's pooled arena with a few Deliver calls and then
// returns the steady-state allocations per call.
func deliverAllocs(t *testing.T, nw *Network) float64 {
	t.Helper()
	msgs := fanMsgs(nw.N(), 12)
	deliver := func() {
		if _, err := nw.Deliver(msgs, func(Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		deliver()
	}
	return testing.AllocsPerRun(10, deliver)
}

// TestDeliverSteadyStateAllocs pins the reliable Deliver at zero
// steady-state allocations: the sender-major arena, delivered batch and
// receive-load stamps are all pooled on the network.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	if a := deliverAllocs(t, NewNetwork(64)); a > 0 {
		t.Fatalf("steady-state Deliver allocates %.1f per call, want 0", a)
	}
}

// TestFaultyDeliverSteadyStateAllocs pins Deliver under a lossy plan at
// zero steady-state allocations: a dropped message stays in its pooled
// FIFO slot and the fault records use constant trace names.
func TestFaultyDeliverSteadyStateAllocs(t *testing.T) {
	nw := NewNetwork(64)
	nw.SetFaults(faultinject.MustNew(faultinject.Spec{Seed: 3, DropProb: 0.05}))
	a := deliverAllocs(t, nw)
	if nw.FaultStats().Drops == 0 {
		t.Fatal("the plan dropped nothing; the test would not exercise the retry path")
	}
	if a > 0 {
		t.Fatalf("steady-state faulty Deliver allocates %.1f per call, want 0", a)
	}
}
