package congest

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/seedderive"
)

func faultyNet(g *graph.Graph, seed int64, spec faultinject.Spec) *Network {
	spec.Seed = seed
	return NewNetwork(g, Options{Seed: seed, Faults: faultinject.MustNew(spec)})
}

// runExchanges drives k identical all-send Exchange rounds and returns the
// per-node received sums plus the final metrics and fault stats.
func runExchanges(nw *Network, k int) ([]Word, Metrics, FaultStats) {
	got := make([]Word, nw.Graph().N())
	for r := 0; r < k; r++ {
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v + 1), true },
			func(v graph.NodeID, h graph.Half, w Word) { got[v] += w },
		)
	}
	return got, nw.Metrics(), nw.FaultStats()
}

func TestFaultyExchangeDeterministic(t *testing.T) {
	spec := faultinject.Spec{
		DropProb: 0.1, DupProb: 0.05, DelayProb: 0.1, MaxDelay: 2,
		CrashProb: 0.1, CrashWindow: 4, FlakyLinkProb: 0.2,
	}
	g := graph.Grid(6, 6)
	gotA, mA, fA := runExchanges(faultyNet(g, 7, spec), 12)
	gotB, mB, fB := runExchanges(faultyNet(g, 7, spec), 12)
	if mA != mB {
		t.Fatalf("metrics diverged across identical faulty runs: %+v vs %+v", mA, mB)
	}
	if fA != fB {
		t.Fatalf("fault stats diverged: %+v vs %+v", fA, fB)
	}
	for v := range gotA {
		if gotA[v] != gotB[v] {
			t.Fatalf("node %d received %d vs %d across identical faulty runs", v, gotA[v], gotB[v])
		}
	}
	if fA.Total() == 0 {
		t.Fatalf("fault plan injected nothing over 12 rounds on a 6x6 grid: %+v", fA)
	}
}

func TestDropRetransmitsUntilDelivered(t *testing.T) {
	// Reliable transport over fair-lossy links: every word eventually
	// arrives exactly once, and drops cost rounds and bandwidth instead of
	// correctness.
	g := graph.Grid(4, 4)
	want, rm, _ := runExchanges(NewNetwork(g, Options{Seed: 3}), 3)
	nw := faultyNet(g, 3, faultinject.Spec{DropProb: 0.4})
	got, m, f := runExchanges(nw, 3)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("node %d received %d, want the reliable sum %d", v, got[v], want[v])
		}
	}
	if f.Drops == 0 {
		t.Fatalf("no drops injected at DropProb=0.4")
	}
	if m.Rounds <= rm.Rounds {
		t.Fatalf("retransmission cost no rounds: faulty=%d reliable=%d", m.Rounds, rm.Rounds)
	}
	// Every transmission attempt was charged: lost words spent bandwidth.
	if m.Messages != rm.Messages+f.Drops {
		t.Fatalf("messages=%d, want %d reliable + %d retransmissions", m.Messages, rm.Messages, f.Drops)
	}
}

func TestAllDropExchangeTerminates(t *testing.T) {
	// DropProb=1 defeats retransmission; the exchange must abandon at its
	// retry cap — delivering nothing, charging the attempts — not spin.
	g := graph.Path(4)
	nw := faultyNet(g, 3, faultinject.Spec{DropProb: 1})
	got, m, f := runExchanges(nw, 1)
	for v, w := range got {
		if w != 0 {
			t.Fatalf("node %d received %d despite DropProb=1", v, w)
		}
	}
	if m.Rounds != exchangeRetryCap+1 {
		t.Fatalf("rounds=%d, want the retry cap %d", m.Rounds, exchangeRetryCap+1)
	}
	if f.Drops == 0 || m.Messages == 0 {
		t.Fatalf("lost transmissions not charged: drops=%d messages=%d", f.Drops, m.Messages)
	}
}

func TestDelayedDeliveryArrivesStale(t *testing.T) {
	g := graph.Path(2) // one edge
	nw := faultyNet(g, 5, faultinject.Spec{DelayProb: 1, MaxDelay: 1})
	var rounds []int // exchange index at which each word arrived
	for r := 0; r < 4; r++ {
		rr := r
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v), rr == 0 },
			func(v graph.NodeID, h graph.Half, w Word) { rounds = append(rounds, rr) },
		)
	}
	if len(rounds) != 2 {
		t.Fatalf("delayed words delivered %d times, want 2 (one per direction)", len(rounds))
	}
	for _, r := range rounds {
		if r == 0 {
			t.Fatalf("a DelayProb=1 word arrived in its own round")
		}
	}
	if nw.FaultStats().Delays != 2 {
		t.Fatalf("delays=%d, want 2", nw.FaultStats().Delays)
	}
}

// A duplicated Exchange word crosses its link twice and is charged twice,
// but the receive handler takes it once.
func TestDupDeliversOnce(t *testing.T) {
	g := graph.Path(2)
	nw := faultyNet(g, 9, faultinject.Spec{DupProb: 1})
	got, m, f := runExchanges(nw, 1)
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("received %v, want each word once [2 1]", got)
	}
	if f.Dups != 2 {
		t.Fatalf("dups=%d, want 2", f.Dups)
	}
	if m.Messages != 4 { // each duplicated word charged twice
		t.Fatalf("messages=%d, want 4", m.Messages)
	}
}

func TestCrashedNodesFallSilent(t *testing.T) {
	g := graph.Star(6)
	spec := faultinject.Spec{CrashProb: 1, CrashWindow: 1} // everyone dead from round 1
	nw := faultyNet(g, 13, spec)
	got, m, f := runExchanges(nw, 3)
	for v, w := range got {
		if w != 0 {
			t.Fatalf("node %d received %d from an all-crashed network", v, w)
		}
	}
	if m.Messages != 0 {
		t.Fatalf("messages=%d: crashed senders must not be charged", m.Messages)
	}
	if m.Rounds != 3 {
		t.Fatalf("rounds=%d, want 3 (rounds still elapse)", m.Rounds)
	}
	if f.Crashes != g.N() {
		t.Fatalf("crashes=%d, want %d", f.Crashes, g.N())
	}
}

func TestConvergecastDetectsFaults(t *testing.T) {
	// Every message on every link dropped: no convergecast can complete,
	// and the primitive must report that rather than hang or lie.
	g := graph.Grid(4, 4)
	nw := faultyNet(g, 21, faultinject.Spec{FlakyLinkProb: 1, FlakyDropProb: 1})
	tree := graph.BFSTree(g, 0)
	_, err := convergecast(nw, []*graph.PartTree{tree},
		func(t int, v graph.NodeID) Word { return 1 }, AggSum)
	if err == nil {
		t.Fatalf("convergecast over an all-dropping network reported success")
	}
	if !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestConvergecastSurvivesDelays(t *testing.T) {
	// Pure delays lose nothing: the convergecast completes with the exact
	// reliable result, just over more rounds.
	g := graph.Grid(5, 5)
	tree := graph.BFSTree(g, 0)
	reliable := NewNetwork(g, Options{Seed: 2})
	want, err := convergecast(reliable, []*graph.PartTree{tree},
		func(t int, v graph.NodeID) Word { return Word(v) }, AggSum)
	if err != nil {
		t.Fatalf("reliable convergecast: %v", err)
	}
	nw := faultyNet(g, 2, faultinject.Spec{DelayProb: 0.4, MaxDelay: 3})
	got, err := convergecast(nw, []*graph.PartTree{tree},
		func(t int, v graph.NodeID) Word { return Word(v) }, AggSum)
	if err != nil {
		t.Fatalf("delayed convergecast: %v", err)
	}
	if got[0] != want[0] {
		t.Fatalf("delayed convergecast aggregate %d, want %d", got[0], want[0])
	}
	if nw.Rounds() <= reliable.Rounds() {
		t.Fatalf("delays did not cost rounds: faulty=%d reliable=%d", nw.Rounds(), reliable.Rounds())
	}
	if nw.FaultStats().Delays == 0 {
		t.Fatalf("no delays injected at DelayProb=0.4")
	}
}

func TestBroadcastSurvivesDrops(t *testing.T) {
	// Retransmission makes a lossy broadcast complete — slower, never wrong.
	g := graph.Grid(5, 5)
	tree := graph.BFSTree(g, 0)
	reliable := NewNetwork(g, Options{Seed: 4})
	if err := broadcast(reliable, []*graph.PartTree{tree}, []Word{7},
		func(t int, v graph.NodeID, w Word) {}); err != nil {
		t.Fatalf("reliable broadcast: %v", err)
	}
	nw := faultyNet(g, 4, faultinject.Spec{DropProb: 0.3})
	seen := make([]Word, g.N())
	if err := broadcast(nw, []*graph.PartTree{tree}, []Word{7},
		func(t int, v graph.NodeID, w Word) { seen[v] = w }); err != nil {
		t.Fatalf("broadcast under 30%% drop: %v", err)
	}
	for v, w := range seen {
		if w != 7 {
			t.Fatalf("node %d got %d, want 7", v, w)
		}
	}
	if nw.Rounds() <= reliable.Rounds() {
		t.Fatalf("drops did not cost rounds: faulty=%d reliable=%d", nw.Rounds(), reliable.Rounds())
	}
}

func TestBroadcastDropsDuplicates(t *testing.T) {
	// A duplicated word reaches its receiver twice; the down-sweep must
	// hand it to on once, so every member of every tree hears its root's
	// value exactly once.
	g := graph.Grid(6, 6)
	trees := []*graph.PartTree{graph.BFSTree(g, 0), graph.BFSTree(g, 17), graph.BFSTree(g, 35)}
	rootVal := []Word{11, 22, 33}
	nw := faultyNet(g, 6, faultinject.Spec{DupProb: 0.5})
	heard := make([][]int, len(trees))
	for i := range heard {
		heard[i] = make([]int, g.N())
	}
	wrong := 0
	err := broadcast(nw, trees, rootVal, func(i int, v graph.NodeID, w Word) {
		heard[i][v]++
		if w != rootVal[i] {
			wrong++
		}
	})
	if err != nil {
		t.Fatalf("broadcast under duplication: %v", err)
	}
	if wrong != 0 {
		t.Fatalf("%d deliveries carried a value other than their root's", wrong)
	}
	for i, tr := range trees {
		for _, v := range tr.Members {
			if heard[i][v] != 1 {
				t.Fatalf("tree %d: on fired %d times at node %d, want once", i, heard[i][v], v)
			}
		}
	}
	if nw.FaultStats().Dups == 0 {
		t.Fatal("the plan duplicated nothing; the test would not exercise the seen mark")
	}
}

func TestRouteManyDropsDuplicates(t *testing.T) {
	// Under DupProb 1 every crossing arrives twice. A packet crosses at
	// most one edge per round, so the second arrival must be dropped: the
	// packets keep the reliable run's arrival rounds, and only the
	// messages double.
	g := graph.Path(6)
	pkts := []Packet{
		{Start: 0, Edges: []graph.EdgeID{0, 1, 2, 3, 4}},
		{Start: 5, Edges: []graph.EdgeID{4, 3, 2, 1, 0}},
		{Start: 1, Edges: []graph.EdgeID{1, 2}},
	}
	reliable := NewNetwork(g, Options{Seed: 4})
	want, err := reliable.RouteMany(pkts)
	if err != nil {
		t.Fatal(err)
	}
	nw := faultyNet(g, 4, faultinject.Spec{DupProb: 1})
	got, err := nw.RouteMany(pkts)
	if err != nil {
		t.Fatalf("routing under duplication: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("arrival rounds %v under duplication, want the reliable %v", got, want)
	}
	if m, r := nw.Metrics().Messages, reliable.Metrics().Messages; m != 2*r {
		t.Fatalf("%d messages under duplication, want twice the reliable %d", m, r)
	}
}

func TestFaultyTreeSchedTerminates(t *testing.T) {
	// drop+delay bands sum to 1: nothing ever crosses, so the scheduler
	// must abandon at its round cap and surface an incomplete broadcast,
	// never spin.
	g := graph.Path(8)
	nw := faultyNet(g, 17, faultinject.Spec{DropProb: 0.9, DelayProb: 0.1, MaxDelay: 5})
	tree := graph.BFSTree(g, 0)
	err := broadcast(nw, []*graph.PartTree{tree}, []Word{42},
		func(t int, v graph.NodeID, w Word) {})
	if err == nil {
		t.Fatalf("broadcast under 90%% drop reported success")
	}
}

func TestNilPlanIsReliable(t *testing.T) {
	// Options.Faults = nil must reproduce the pre-fault engine bit for bit.
	g := graph.Grid(4, 5)
	run := func(opts Options) ([]Word, Metrics) {
		nw := NewNetwork(g, opts)
		got, m, _ := runExchanges(nw, 5)
		return got, m
	}
	gotA, mA := run(Options{Seed: 11})
	gotB, mB := run(Options{Seed: 11, Faults: nil})
	if mA != mB {
		t.Fatalf("nil fault plan changed metrics: %+v vs %+v", mA, mB)
	}
	for v := range gotA {
		if gotA[v] != gotB[v] {
			t.Fatalf("nil fault plan changed deliveries at node %d", v)
		}
	}
}

// TestDupOnlyPlansMatchReliable is exactly-once delivery as a property: a
// plan that only duplicates words changes nothing but the message count.
// Over random trees and fault seeds, AggregateMany, UpDownMany and
// RouteMany under a DupProb-only plan must return the reliable values in
// the reliable rounds, and each must charge the reliable messages plus one
// per duplicate. The up-sweep drops a child's second word by its seen
// mark, as the down-sweep and RouteMany drop theirs.
func TestDupOnlyPlansMatchReliable(t *testing.T) {
	const base = int64(0xD0B1)
	var dups int64
	for i := int64(0); i < 60; i++ {
		seed := seedderive.Derive(base, "dup-only", i)
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.RandomConnected(n, rng.Intn(n), 1, seed)
		trees := bracketTrees(g, rng, i%2 == 0)
		set := mustSet(t, g, trees...)
		var pkts []Packet
		for _, tr := range trees {
			for i, v := range tr.Members {
				var path []graph.EdgeID
				for u := i; tr.Parent[u] != -1; u = int(tr.Parent[u]) {
					path = append(path, graph.EdgeID(tr.ParentEdge[u]))
				}
				pkts = append(pkts, Packet{Start: v, Edges: path, Payload: Word(v)})
			}
		}
		val := func(t int, v graph.NodeID) Word { return Word(1 + 7*t + v) }
		total := func(t int, w Word) Word { return w + Word(t) }
		down := func(_, parent, child int, pv, sub Word) Word {
			return pv + sub + Word(set.Node(parent)^set.Node(child))
		}
		// run returns every primitive's outputs, rounds and messages on nw.
		run := func(nw *Network) (outs [3][]Word, rounds, msgs [3]int64) {
			prims := []func() error{
				func() error {
					out, err := nw.AggregateMany(set, val, AggSum)
					outs[0] = out
					return err
				},
				func() error {
					return nw.UpDownMany(set, val, AggSum, total, down, func(t, i int, w Word) {
						outs[1] = append(outs[1], Word(t), Word(i), w)
					})
				},
				func() error {
					arr, err := nw.RouteMany(pkts)
					for _, a := range arr {
						outs[2] = append(outs[2], Word(a))
					}
					return err
				},
			}
			for p, prim := range prims {
				r0, m0 := nw.Rounds(), nw.Metrics().Messages
				if err := prim(); err != nil {
					t.Fatalf("seed %d primitive %d: %v", seed, p, err)
				}
				rounds[p], msgs[p] = int64(nw.Rounds()-r0), nw.Metrics().Messages-m0
			}
			return outs, rounds, msgs
		}
		wantOut, wantRounds, wantMsgs := run(NewNetwork(g, Options{Seed: seed}))
		nw := faultyNet(g, seed, faultinject.Spec{DupProb: 0.05 + 0.4*rng.Float64()})
		gotOut, gotRounds, _ := run(nw)
		for p := range gotOut {
			if !slices.Equal(gotOut[p], wantOut[p]) {
				t.Fatalf("seed %d primitive %d: outputs %v under duplication, want the reliable %v", seed, p, gotOut[p], wantOut[p])
			}
		}
		if gotRounds != wantRounds {
			t.Fatalf("seed %d: rounds %v under duplication, want the reliable %v", seed, gotRounds, wantRounds)
		}
		var reliable int64
		for _, m := range wantMsgs {
			reliable += m
		}
		d := nw.FaultStats().Dups
		if got := nw.Metrics().Messages; got != reliable+d {
			t.Fatalf("seed %d: %d messages, want the reliable %d plus %d duplicates", seed, got, reliable, d)
		}
		dups += d
	}
	if dups == 0 {
		t.Fatal("no plan duplicated anything; the property was not exercised")
	}
}
