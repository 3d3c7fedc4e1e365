package ncc

import (
	"testing"
	"testing/quick"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/partwise"
	"distlap/internal/shortcut"
)

func TestCapacityIsLogN(t *testing.T) {
	tests := []struct{ n, want int }{
		{n: 1, want: 1}, {n: 2, want: 1}, {n: 3, want: 2}, {n: 4, want: 2},
		{n: 5, want: 3}, {n: 1024, want: 10}, {n: 1025, want: 11},
	}
	for _, tt := range tests {
		if c := NewNetwork(tt.n, nil, nil).Capacity(); c != tt.want {
			t.Fatalf("n=%d: cap=%d, want %d", tt.n, c, tt.want)
		}
	}
}

func TestDeliverRespectsCaps(t *testing.T) {
	nw := NewNetwork(4, nil, nil) // cap 2
	// Node 0 sends 5 messages to node 1: needs ceil(5/2)=3 rounds.
	var msgs []Message
	for i := 0; i < 5; i++ {
		msgs = append(msgs, Message{From: 0, To: 1, Payload: congest.Word(i)})
	}
	got := 0
	rounds, err := nw.Deliver(msgs, func(Message) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 || rounds != 3 {
		t.Fatalf("delivered=%d rounds=%d", got, rounds)
	}
	if nw.Messages() != 5 {
		t.Fatalf("messages=%d", nw.Messages())
	}
}

func TestDeliverReceiverBottleneck(t *testing.T) {
	nw := NewNetwork(8, nil, nil) // cap 3
	// 6 distinct senders all target node 0: ceil(6/3)=2 rounds.
	var msgs []Message
	for s := 1; s <= 6; s++ {
		msgs = append(msgs, Message{From: graph.NodeID(s), To: 0})
	}
	delivered := 0
	rounds, err := nw.Deliver(msgs, func(Message) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 || delivered != 6 {
		t.Fatalf("rounds=%d delivered=%d, want 2 and all 6 (the schedule drops nothing)", rounds, delivered)
	}
}

func TestDeliverValidatesRange(t *testing.T) {
	nw := NewNetwork(3, nil, nil)
	if _, err := nw.Deliver([]Message{{From: 0, To: 5}}, func(Message) {}); err == nil {
		t.Fatal("want range error")
	}
}

func TestDeliverEmpty(t *testing.T) {
	nw := NewNetwork(3, nil, nil)
	rounds, err := nw.Deliver(nil, func(Message) {})
	if err != nil || rounds != 0 {
		t.Fatalf("rounds=%d err=%v", rounds, err)
	}
}

func TestAggregateSingleGlobalPart(t *testing.T) {
	n := 64
	nw := NewNetwork(n, nil, nil)
	part := make([]graph.NodeID, n)
	vals := make([]congest.Word, n)
	for i := 0; i < n; i++ {
		part[i] = i
		vals[i] = congest.Word(i)
	}
	inst := &partwise.Instance{Parts: [][]graph.NodeID{part}, Values: [][]congest.Word{vals}}
	out, err := nw.Aggregate(inst, partwise.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != congest.Word(n*(n-1)/2) {
		t.Fatalf("sum=%d", out[0])
	}
	// O(log n) rounds for a single part: 6 up levels + 6 down, each 1
	// Deliver round (caps never exceeded).
	if nw.Rounds() > 2*6 {
		t.Fatalf("rounds=%d, want <= 12", nw.Rounds())
	}
}

func TestAggregateCongestedInstance(t *testing.T) {
	g, inst := partwise.GridCongestedInstance(6)
	nw := NewNetwork(g.N(), nil, nil)
	out, err := nw.Aggregate(inst, partwise.Max)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Expected(partwise.Max)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("part %d: got %d want %d", i, out[i], want[i])
		}
	}
}

func TestAggregateRejectsBadInstance(t *testing.T) {
	nw := NewNetwork(4, nil, nil)
	bad := &partwise.Instance{Parts: [][]graph.NodeID{{0, 1}}, Values: [][]congest.Word{{1}}}
	if _, err := nw.Aggregate(bad, partwise.Sum); err == nil {
		t.Fatal("want mismatch error")
	}
	dup := &partwise.Instance{Parts: [][]graph.NodeID{{0, 0}}, Values: [][]congest.Word{{1, 2}}}
	if _, err := nw.Aggregate(dup, partwise.Sum); err == nil {
		t.Fatal("want duplicate error")
	}
	oob := &partwise.Instance{Parts: [][]graph.NodeID{{9}}, Values: [][]congest.Word{{1}}}
	if _, err := nw.Aggregate(oob, partwise.Sum); err == nil {
		t.Fatal("want range error")
	}
}

func TestAggregateRoundsScaleLemma26(t *testing.T) {
	// Rounds should scale like p + log n, not like p * log n or k.
	g := graph.Grid(8, 8)
	measure := func(p int) int {
		inst := partwise.RandomCongestedInstance(g, p, 4, 7)
		nw := NewNetwork(g.N(), nil, nil)
		if _, err := nw.Aggregate(inst, partwise.Min); err != nil {
			t.Fatal(err)
		}
		return nw.Rounds()
	}
	r1, r8 := measure(1), measure(8)
	if r8 > 8*r1 {
		t.Fatalf("rounds grew superlinearly: p=1 %d, p=8 %d", r1, r8)
	}
}

// Property: NCC aggregation agrees with the reference on random congested
// instances.
func TestAggregateProperty(t *testing.T) {
	f := func(seed int64, pp uint8) bool {
		p := int(pp%4) + 1
		g := graph.Grid(5, 5)
		inst := partwise.RandomCongestedInstance(g, p, 3, seed)
		nw := NewNetwork(g.N(), nil, nil)
		out, err := nw.Aggregate(inst, partwise.Sum)
		if err != nil {
			return false
		}
		want := inst.Expected(partwise.Sum)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: parts that are disconnected in any graph still aggregate (NCC
// needs no connectivity).
func TestAggregateDisconnectedParts(t *testing.T) {
	nw := NewNetwork(10, nil, nil)
	inst := &partwise.Instance{
		Parts:  [][]graph.NodeID{{0, 9}, {3, 5, 7}},
		Values: [][]congest.Word{{4, 6}, {1, 2, 3}},
	}
	out, err := nw.Aggregate(inst, partwise.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 || out[1] != 6 {
		t.Fatalf("out=%v", out)
	}
	_ = shortcut.Congestion(inst.Parts) // parts API interoperates
}

// fanMsgs is a fixed batch in which every node sends to its next k nodes,
// enough traffic to hit the per-node caps for several rounds.
func fanMsgs(n, k int) []Message {
	var msgs []Message
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			msgs = append(msgs, Message{From: i, To: (i + j) % n, Payload: congest.Word(i)})
		}
	}
	return msgs
}

// levelMsgs is one level of Aggregate's upward tournament over members
// 0..n−1: every member j ≡ stride (mod 2·stride) sends to j − stride, so
// only n/(2·stride) of the n nodes send.
func levelMsgs(n, stride int) []Message {
	var msgs []Message
	for j := stride; j < n; j += 2 * stride {
		msgs = append(msgs, Message{From: j, To: j - stride, Payload: congest.Word(j)})
	}
	return msgs
}

// BenchmarkDeliver times one reliable Deliver of 256 nodes × 8 messages on
// a warmed network, the steady state of every NCC aggregation round.
func BenchmarkDeliver(b *testing.B) {
	nw := NewNetwork(256, nil, nil)
	msgs := fanMsgs(nw.n, 8)
	recv := func(Message) {}
	if _, err := nw.Deliver(msgs, recv); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Deliver(msgs, recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliverSparse times one reliable Deliver of a sparse batch on
// a warmed 256-node network: the stride-8 level of the tournament, in
// which 16 of the 256 nodes send one message each, the shape of an
// aggregation's upper levels.
func BenchmarkDeliverSparse(b *testing.B) {
	nw := NewNetwork(256, nil, nil)
	msgs := levelMsgs(nw.n, 8)
	recv := func(Message) {}
	if _, err := nw.Deliver(msgs, recv); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Deliver(msgs, recv); err != nil {
			b.Fatal(err)
		}
	}
}
