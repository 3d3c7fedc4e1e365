//go:build !race

// Allocation-regression guards for the engine's pooled hot paths. The race
// runtime changes allocation behaviour, so these run only in the plain
// test pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package congest

import (
	"runtime"
	"testing"

	"distlap/internal/faultinject"
	"distlap/internal/graph"
)

// TestExchangeSteadyStateAllocs pins the Exchange fast path at zero
// steady-state allocations: after the first round warms the pooled delivery
// buffer, every further round runs entirely on reused scratch.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	round := func() {
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v), true },
			func(v graph.NodeID, h graph.Half, w Word) {},
		)
	}
	round() // warm the pooled delivery buffer
	if a := testing.AllocsPerRun(10, round); a > 0 {
		t.Fatalf("steady-state Exchange allocates %.1f per round, want 0", a)
	}
}

// TestFaultyExchangeSteadyStateAllocs pins Exchange under a lossy plan at
// zero steady-state allocations too: fates are resolved inside the same
// send scan, drops are retransmitted from the pooled retry buffer, and the
// fault records use constant trace names.
func TestFaultyExchangeSteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	plan := faultinject.MustNew(faultinject.Spec{Seed: 3, DropProb: 0.05})
	nw := NewNetwork(g, Options{Supported: true, Seed: 3, Faults: plan})
	round := func() {
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (Word, bool) { return Word(v), true },
			func(v graph.NodeID, h graph.Half, w Word) {},
		)
	}
	for i := 0; i < 10; i++ {
		round() // warm the delivery and retry buffers
	}
	if nw.FaultStats().Drops == 0 {
		t.Fatal("the plan dropped nothing; the test would not exercise the retry path")
	}
	if a := testing.AllocsPerRun(10, round); a > 0 {
		t.Fatalf("steady-state faulty Exchange allocates %.1f per round, want 0", a)
	}
}

// TestAggregateManySteadyStateAllocs pins the tree-aggregation pipeline
// (convergecast + broadcast over shared scheduler/state pools) at its
// documented steady-state budget: exactly the returned per-tree result
// slice, nothing per round or per member. The set is compiled once,
// outside the measured call, as a prepared instance compiles its trees.
func TestAggregateManySteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	tr := graph.BFSTree(g, 0)
	trees := mustSet(t, g, tr, tr, tr)
	val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
	agg := func() {
		if _, err := nw.AggregateMany(trees, val, AggSum); err != nil {
			t.Fatal(err)
		}
	}
	agg() // warm the scheduler queues and sweep state
	agg()
	const budget = 1 // the returned []Word only
	if a := testing.AllocsPerRun(10, agg); a > budget {
		t.Fatalf("steady-state AggregateMany allocates %.1f per call, budget %d", a, budget)
	}
}

// TestUpDownManySteadyStateAllocs pins the tree-solver sweep (a
// convergecast and a transforming down-sweep over a compiled set and
// member-slot state) at zero steady-state allocations: it returns nothing
// but its error.
func TestUpDownManySteadyStateAllocs(t *testing.T) {
	g := graph.Grid(12, 12)
	nw := NewNetwork(g, Options{Supported: true, Seed: 3})
	tr := graph.BFSTree(g, 0)
	trees := mustSet(t, g, tr, tr, tr)
	pot := make([]Word, trees.First(trees.Len()))
	val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
	rootVal := func(int, Word) Word { return 0 }
	down := func(_, _, _ int, parentVal, childSub Word) Word { return parentVal + childSub }
	on := func(_, i int, w Word) { pot[i] = w }
	sweep := func() {
		if err := nw.UpDownMany(trees, val, AggSum, rootVal, down, on); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm the sweep state and scheduler queues
	sweep()
	if a := testing.AllocsPerRun(10, sweep); a > 0 {
		t.Fatalf("steady-state UpDownMany allocates %.1f per call, want 0", a)
	}
}

// TestColdAggregateManyAllocs pins what a fresh network's first
// AggregateMany allocates, which every request pays: the network, its
// pooled scheduler and sweep state, the RNG and the result. The network
// goes to a package-level sink, as a request's network escapes into the
// comm that holds it, so the count includes the Network itself even where
// NewNetwork inlines. The send store and the scheduler's edge set are flat
// arrays, not a queue per directed edge, so only the store's doublings
// grow with the graph; one budget covers an 8×8 grid (25 allocations) and
// a 24×24 one (29).
func TestColdAggregateManyAllocs(t *testing.T) {
	const budget = 29
	for _, side := range []int{8, 24} {
		g := graph.Grid(side, side)
		tr := graph.BFSTree(g, 0)
		trees := mustSet(t, g, tr, tr, tr)
		val := func(t int, v graph.NodeID) Word { return Word(v % 5) }
		cold := func() {
			netSink = NewNetwork(g, Options{Supported: true, Seed: 3})
			if _, err := netSink.AggregateMany(trees, val, AggSum); err != nil {
				t.Fatal(err)
			}
		}
		if a := testing.AllocsPerRun(10, cold); a > budget {
			t.Fatalf("Grid(%d,%d): a fresh network's first AggregateMany allocates %.1f, budget %d", side, side, a, budget)
		}
	}
}

// TestGlobalSetCompileAllocs pins the bytes a request pays to compile its
// two-fold global set (the tree of a batched two-vector GlobalSums) on
// expander-512, the solve-expander graph: the set's own arrays, 28.1 KB
// for 1,024 slots (their host nodes as int32) and the 511 host edges its
// links name, and no scratch the size of the graph. The set takes c and
// its links from a radix sort of its up edges in its own child-list
// arrays, so the compile needs no per-directed-edge count; the budget
// sits below the 40.4 KB the compile allocated while it kept an n + 2m
// host-to-slot map and count array.
func TestGlobalSetCompileAllocs(t *testing.T) {
	const budget = 32 << 10
	g := graph.RandomRegular(512, 4, 7)
	tr := graph.CenterTree(g)
	trees := []*graph.PartTree{tr, tr}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s, err := NewTreeSet(g, trees)
		if err != nil {
			t.Fatal(err)
		}
		setSink = s
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("compiling the two-fold global set allocates %d bytes, budget %d", per, budget)
	}
}

var (
	setSink *TreeSet
	netSink *Network
)

// TestLayeredSubnetworkAllocs bounds the bytes of BenchmarkLayeredSubnetwork's
// pair, a fresh network over Ĝ_61 of Grid(8,8) and one AggregateMany over
// short trees: what each Lemma 16 path batch pays. The network's loads are
// dense over the 6,832 stored layer edges only (16 bytes each) and its send
// store holds the trees' links, so the budget is those loads plus a
// per-slot and a fixed allowance; a network whose load array or send store
// spans all 2·m_L = 247,904 directed edges allocates about 4 MB.
func TestLayeredSubnetworkAllocs(t *testing.T) {
	base := graph.Grid(8, 8)
	g := graph.Layers(base, 61)
	s := mustSet(t, g, layeredTrees(base, g)...)
	budget := uint64(16*g.StoredM() + 256*s.First(s.Len()) + 16<<10)
	val := func(_ int, v graph.NodeID) Word { return Word(v % 7) }
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		netSink = NewNetwork(g, Options{Supported: true, Seed: 3})
		if _, err := netSink.AggregateMany(s, val, AggSum); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
		t.Fatalf("a network over Ĝ_61 of Grid(8,8) and one AggregateMany allocate %d bytes, budget %d", per, budget)
	}
}
