package ncc

import (
	"errors"
	"slices"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/simtrace"
)

func cliqueMsgs(n int) []Message {
	var msgs []Message
	for i := 0; i < n; i++ {
		msgs = append(msgs, Message{From: i, To: (i + 1) % n, Payload: congest.Word(i)})
	}
	return msgs
}

func TestFaultyDeliverDeterministic(t *testing.T) {
	spec := faultinject.Spec{Seed: 3, DropProb: 0.2, DupProb: 0.1, DelayProb: 0.2, CrashProb: 0.1}
	run := func() (map[graph.NodeID]congest.Word, int, faultinject.Stats) {
		nw := NewNetwork(32, nil, faultinject.MustNew(spec))
		got := map[graph.NodeID]congest.Word{}
		used, err := nw.Deliver(cliqueMsgs(32), func(m Message) { got[m.To] += m.Payload + 1 })
		if err != nil {
			t.Fatalf("faulty deliver: %v", err)
		}
		return got, used, nw.FaultStats()
	}
	gotA, usedA, fA := run()
	gotB, usedB, fB := run()
	if usedA != usedB || fA != fB {
		t.Fatalf("faulty runs diverged: rounds %d vs %d, stats %+v vs %+v", usedA, usedB, fA, fB)
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("delivery sets diverged")
	}
	for to, w := range gotA {
		if gotB[to] != w {
			t.Fatalf("node %d received %d vs %d", to, w, gotB[to])
		}
	}
	if fA.Total() == 0 {
		t.Fatalf("plan injected nothing: %+v", fA)
	}
}

func TestFaultyDeliverAllDropped(t *testing.T) {
	// DropProb=1 defeats retransmission: the round budget must convert the
	// starved schedule into ErrFaultBudget, with nothing delivered.
	nw := NewNetwork(8, nil, faultinject.MustNew(faultinject.Spec{Seed: 1, DropProb: 1}))
	delivered := 0
	used, err := nw.Deliver(cliqueMsgs(8), func(Message) { delivered++ })
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("all-drop deliver: got %v, want ErrFaultBudget", err)
	}
	if delivered != 0 {
		t.Fatalf("%d messages delivered at DropProb=1", delivered)
	}
	if used == 0 || nw.Rounds() != used {
		t.Fatalf("rounds not charged: used=%d rounds=%d", used, nw.Rounds())
	}
	if nw.FaultStats().Drops < 8 {
		t.Fatalf("drops=%d, want >=8 (every retransmission attempt counted)", nw.FaultStats().Drops)
	}
}

func TestFaultyDeliverDropRetransmits(t *testing.T) {
	// Fair loss: every message eventually arrives exactly once, over more
	// rounds than the reliable schedule.
	reliable := NewNetwork(16, nil, nil)
	wantUsed, err := reliable.Deliver(cliqueMsgs(16), func(Message) {})
	if err != nil {
		t.Fatalf("reliable deliver: %v", err)
	}
	nw := NewNetwork(16, nil, faultinject.MustNew(faultinject.Spec{Seed: 6, DropProb: 0.4}))
	count := map[graph.NodeID]int{}
	used, err := nw.Deliver(cliqueMsgs(16), func(m Message) { count[m.To]++ })
	if err != nil {
		t.Fatalf("lossy deliver: %v", err)
	}
	if len(count) != 16 {
		t.Fatalf("%d receivers heard something, want 16", len(count))
	}
	for to, c := range count {
		if c != 1 {
			t.Fatalf("node %d received %d copies, want exactly 1", to, c)
		}
	}
	if used <= wantUsed {
		t.Fatalf("retransmission cost no rounds: lossy=%d reliable=%d", used, wantUsed)
	}
	if nw.FaultStats().Drops == 0 {
		t.Fatalf("no drops injected at DropProb=0.4")
	}
}

func TestFaultyDeliverNeverHangs(t *testing.T) {
	// Perpetual delays starve the schedule; the round budget must convert
	// that into an error instead of a spin.
	nw := NewNetwork(4, nil, faultinject.MustNew(faultinject.Spec{Seed: 2, DelayProb: 1}))
	_, err := nw.Deliver(cliqueMsgs(4), func(Message) {})
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("expected ErrFaultBudget, got %v", err)
	}
}

// wordLog records the clique's node-word charges in emission order.
type wordLog struct {
	simtrace.Nop
	pairs [][2]int
}

func (l *wordLog) NodeWords(_ string, from, to int, n int64) {
	for ; n > 0; n-- {
		l.pairs = append(l.pairs, [2]int{from, to})
	}
}

// TestFaultyDeliverDupChargesTwiceDeliversOnce pins the clique's duplicate:
// both copies are charged, in Messages and as two adjacent node-word
// records, and the receive callback takes the message once, as Exchange's
// handler and the tree scheduler's consumers do.
func TestFaultyDeliverDupChargesTwiceDeliversOnce(t *testing.T) {
	log := &wordLog{}
	nw := NewNetwork(6, log, faultinject.MustNew(faultinject.Spec{Seed: 4, DupProb: 1}))
	var got []Message
	if _, err := nw.Deliver(cliqueMsgs(6), func(m Message) { got = append(got, m) }); err != nil {
		t.Fatalf("dup deliver: %v", err)
	}
	want := cliqueMsgs(6)
	if !slices.Equal(got, want) {
		t.Fatalf("received %v, want each message once: %v", got, want)
	}
	if nw.Messages() != 12 {
		t.Fatalf("messages=%d, want 12 (both copies charged)", nw.Messages())
	}
	var pairs [][2]int
	for _, m := range want {
		pairs = append(pairs, [2]int{m.From, m.To}, [2]int{m.From, m.To})
	}
	if !slices.Equal(log.pairs, pairs) {
		t.Fatalf("node-word records %v, want each message's two copies in turn: %v", log.pairs, pairs)
	}
}

// TestNilFaultPlanKeepsReliablePath pins that a nil plan compiles to
// nothing: the network runs the reliable schedule, handing each message
// over once in sender order and injecting no fault.
func TestNilFaultPlanKeepsReliablePath(t *testing.T) {
	nw := NewNetwork(16, nil, nil)
	if nw.link.Faulty() {
		t.Fatal("a nil plan compiled a faulty link")
	}
	var got []Message
	if _, err := nw.Deliver(cliqueMsgs(16), func(m Message) { got = append(got, m) }); err != nil {
		t.Fatalf("reliable deliver: %v", err)
	}
	if !slices.Equal(got, cliqueMsgs(16)) || nw.Messages() != 16 || nw.FaultStats() != (faultinject.Stats{}) {
		t.Fatalf("nil plan: delivered %v, %d messages, stats %+v", got, nw.Messages(), nw.FaultStats())
	}
}
