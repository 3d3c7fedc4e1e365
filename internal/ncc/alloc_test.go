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

// deliverAllocs warms nw's pooled arena with a few Deliver calls of msgs
// and then returns the steady-state allocations per call.
func deliverAllocs(t *testing.T, nw *Network, msgs []Message) float64 {
	t.Helper()
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

// batch is a named message batch over n nodes.
type batch struct {
	name string
	msgs []Message
}

// batches are a dense batch, in which every node sends 12 messages, and a
// sparse one, a tournament level in which 16 of the 64 nodes send.
func batches(n int) []batch {
	return []batch{{"dense", fanMsgs(n, 12)}, {"sparse", levelMsgs(n, 2)}}
}

// TestDeliverSteadyStateAllocs pins the reliable Deliver at zero
// steady-state allocations on dense and sparse batches: the sender list,
// the sender-major arena, delivered batch and receive-load stamps are all
// pooled on the network.
func TestDeliverSteadyStateAllocs(t *testing.T) {
	for _, b := range batches(64) {
		if a := deliverAllocs(t, NewNetwork(64, nil, nil), b.msgs); a > 0 {
			t.Fatalf("steady-state Deliver of the %s batch allocates %.1f per call, want 0", b.name, a)
		}
	}
}

// TestFaultyDeliverSteadyStateAllocs pins Deliver under a lossy plan at
// zero steady-state allocations on dense and sparse batches: a dropped
// message stays in its pooled FIFO slot and the fault records use
// constant trace names.
func TestFaultyDeliverSteadyStateAllocs(t *testing.T) {
	for _, b := range batches(64) {
		nw := NewNetwork(64, nil, faultinject.MustNew(faultinject.Spec{Seed: 3, DropProb: 0.05}))
		a := deliverAllocs(t, nw, b.msgs)
		if nw.FaultStats().Drops == 0 {
			t.Fatalf("the plan dropped nothing in the %s batch; the test would not exercise the retry path", b.name)
		}
		if a > 0 {
			t.Fatalf("steady-state faulty Deliver of the %s batch allocates %.1f per call, want 0", b.name, a)
		}
	}
}
