package partwise

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/shortcut"
	"distlap/internal/simtrace"
)

func newNet(g *graph.Graph, supported bool) *congest.Network {
	return congest.NewNetwork(g, congest.Options{Seed: 1, Supported: supported})
}

// rowInstance: rows of a grid as parts (1-congested), values = node IDs.
func rowInstance(rows, cols int) (*graph.Graph, *Instance) {
	g := graph.Grid(rows, cols)
	inst := &Instance{}
	for r := 0; r < rows; r++ {
		var part []graph.NodeID
		var vals []congest.Word
		for c := 0; c < cols; c++ {
			v := graph.GridID(cols, r, c)
			part = append(part, v)
			vals = append(vals, congest.Word(v))
		}
		inst.Parts = append(inst.Parts, part)
		inst.Values = append(inst.Values, vals)
	}
	return g, inst
}

func TestInstanceValidate(t *testing.T) {
	g, inst := rowInstance(3, 3)
	if err := inst.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{Parts: inst.Parts, Values: inst.Values[:2]}
	if err := bad.Validate(g); !errors.Is(err, ErrValuesMismatch) {
		t.Fatalf("err=%v", err)
	}
	bad2 := &Instance{Parts: [][]graph.NodeID{{0, 1}}, Values: [][]congest.Word{{1, 2, 3}}}
	if err := bad2.Validate(g); !errors.Is(err, ErrValuesMismatch) {
		t.Fatalf("err=%v", err)
	}
}

func TestExpected(t *testing.T) {
	_, inst := rowInstance(2, 3)
	sums := inst.Expected(Sum)
	if sums[0] != 0+1+2 || sums[1] != 3+4+5 {
		t.Fatalf("sums=%v", sums)
	}
	mins := inst.Expected(Min)
	if mins[0] != 0 || mins[1] != 3 {
		t.Fatalf("mins=%v", mins)
	}
	maxs := inst.Expected(Max)
	if maxs[0] != 2 || maxs[1] != 5 {
		t.Fatalf("maxs=%v", maxs)
	}
}

func TestAggSpecIdentities(t *testing.T) {
	for _, spec := range []AggSpec{Sum, Min, Max, And, Or} {
		for _, w := range []congest.Word{-5, 0, 3, 1} {
			if spec.Name == "and" || spec.Name == "or" {
				if w != 0 && w != 1 {
					continue
				}
			}
			if got := spec.Fn(spec.Identity, w); got != w {
				t.Fatalf("%s: identity⊕%d = %d", spec.Name, w, got)
			}
			if got := spec.Fn(w, spec.Identity); got != w {
				t.Fatalf("%s: %d⊕identity = %d", spec.Name, w, got)
			}
		}
	}
}

func TestGridCongestedInstance(t *testing.T) {
	g, inst := GridCongestedInstance(4)
	if err := inst.Validate(g); err != nil {
		t.Fatal(err)
	}
	if inst.Congestion() != 2 {
		t.Fatalf("congestion=%d, want 2", inst.Congestion())
	}
	if len(inst.Parts) != 8 {
		t.Fatalf("parts=%d", len(inst.Parts))
	}
}

func TestMinOneCongestedCoverFig1(t *testing.T) {
	// Observation 14: every row intersects every column, so a direct
	// decomposition into 1-congested instances needs >= s classes even
	// though p=2... (rows are mutually disjoint, as are columns, so the
	// conflict graph is complete bipartite: exactly 2 classes suffice for
	// rows-vs-columns — the Ω(√n) blowup appears for parts that pairwise
	// intersect). Check both shapes.
	_, inst := GridCongestedInstance(5)
	if c := MinOneCongestedCover(inst.Parts); c != 2 {
		t.Fatalf("rows/cols cover=%d, want 2", c)
	}
	// Pairwise-intersecting parts: diagonal "L" parts all sharing node 0.
	g := graph.Star(6)
	var parts [][]graph.NodeID
	for leaf := 1; leaf < 6; leaf++ {
		parts = append(parts, []graph.NodeID{0, leaf})
	}
	_ = g
	if c := MinOneCongestedCover(parts); c != 5 {
		t.Fatalf("pairwise-intersecting cover=%d, want 5", c)
	}
	if MinOneCongestedCover(nil) != 0 {
		t.Fatal("empty cover")
	}
}

func TestNaiveGlobalSolver(t *testing.T) {
	for _, supported := range []bool{false, true} {
		g, inst := rowInstance(4, 5)
		nw := newNet(g, supported)
		out, err := NaiveGlobalSolver{}.Solve(nw, inst, Sum)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.Expected(Sum)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("supported=%v: part %d: got %d want %d", supported, i, out[i], want[i])
			}
		}
		if nw.Rounds() == 0 {
			t.Fatal("no rounds charged")
		}
		if supported {
			continue
		}
		// Unsupported mode additionally pays the BFS.
		nw2 := newNet(g, true)
		if _, err := (NaiveGlobalSolver{}).Solve(nw2, inst, Sum); err != nil {
			t.Fatal(err)
		}
		if nw.Rounds() <= nw2.Rounds() {
			t.Fatalf("CONGEST rounds %d should exceed Supported rounds %d",
				nw.Rounds(), nw2.Rounds())
		}
	}
}

// TestNaiveGlobalSolverCosts pins the baseline on the six row parts of
// the Figure 1 instance, where no experiment runs it on an unsupported
// network: there it aggregates over the charged BFS's tree and pays that
// BFS, on a supported network over graph.BFSTree's for free.
func TestNaiveGlobalSolverCosts(t *testing.T) {
	g, full := GridCongestedInstance(6)
	inst := &Instance{Parts: full.Parts[:6], Values: full.Values[:6]}
	for _, tc := range []struct {
		supported bool
		want      congest.Metrics
	}{
		{false, congest.Metrics{Rounds: 43, Messages: 540, MaxEdgeLoad: 7}},
		{true, congest.Metrics{Rounds: 32, Messages: 420, MaxEdgeLoad: 6}},
	} {
		nw := newNet(g, tc.supported)
		out, err := NaiveGlobalSolver{}.Solve(nw, inst, Sum)
		if err != nil {
			t.Fatal(err)
		}
		if want := []congest.Word{15, 51, 87, 123, 159, 195}; !slices.Equal(out, want) {
			t.Fatalf("supported=%v: sums %v, want %v", tc.supported, out, want)
		}
		if got := nw.Metrics(); got != tc.want {
			t.Fatalf("supported=%v: rounds, messages, max edge load %+v, want %+v", tc.supported, got, tc.want)
		}
	}
}

func TestShortcutSolverMatchesExpected(t *testing.T) {
	g, inst := rowInstance(5, 5)
	for _, spec := range []AggSpec{Sum, Min, Max} {
		nw := newNet(g, true)
		out, err := new(ShortcutSolver).Solve(nw, inst, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.Expected(spec)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s part %d: got %d want %d", spec.Name, i, out[i], want[i])
			}
		}
	}
}

func TestShortcutSolverRejectsCongested(t *testing.T) {
	g, inst := GridCongestedInstance(3)
	nw := newNet(g, true)
	if _, err := new(ShortcutSolver).Solve(nw, inst, Sum); !errors.Is(err, ErrCongested) {
		t.Fatalf("err=%v", err)
	}
}

func TestShortcutSolverChargesConstructionInCongest(t *testing.T) {
	g, inst := rowInstance(4, 4)
	supp := newNet(g, true)
	cong := newNet(g, false)
	if _, err := new(ShortcutSolver).Solve(supp, inst, Sum); err != nil {
		t.Fatal(err)
	}
	if _, err := new(ShortcutSolver).Solve(cong, inst, Sum); err != nil {
		t.Fatal(err)
	}
	if cong.Rounds() <= supp.Rounds() {
		t.Fatalf("CONGEST %d <= Supported %d", cong.Rounds(), supp.Rounds())
	}
}

func TestDecomposePartPath(t *testing.T) {
	g := graph.Path(6)
	paths, err := decomposePart(new(graph.Induced), g, []graph.NodeID{0, 1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A path decomposes into a single heavy path.
	if len(paths) != 1 || len(paths[0].nodes) != 6 || paths[0].level != 0 {
		t.Fatalf("paths=%+v", paths)
	}
	if paths[0].attach != -1 {
		t.Fatal("root path should have no attachment")
	}
}

func TestDecomposePartStar(t *testing.T) {
	g := graph.Star(6)
	part := []graph.NodeID{0, 1, 2, 3, 4, 5}
	paths, err := decomposePart(new(graph.Induced), g, part, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Star from center: one level-0 path (center + one leaf) and 4
	// level-1 singleton paths.
	if len(paths) != 5 {
		t.Fatalf("got %d paths", len(paths))
	}
	levels := map[int]int{}
	for _, p := range paths {
		levels[p.level]++
		if p.part != 3 {
			t.Fatal("part index not propagated")
		}
		if p.level > 0 {
			if p.attach == -1 || p.attachEdge == -1 {
				t.Fatalf("light path missing attachment: %+v", p)
			}
		}
	}
	if levels[0] != 1 || levels[1] != 4 {
		t.Fatalf("levels=%v", levels)
	}
}

func TestDecomposePartCoversEachNodeOnce(t *testing.T) {
	g := graph.RandomConnected(40, 20, 1, 5)
	part := make([]graph.NodeID, 40)
	for i := range part {
		part[i] = i
	}
	paths, err := decomposePart(new(graph.Induced), g, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]int{}
	for _, p := range paths {
		for _, v := range p.nodes {
			seen[v]++
		}
	}
	if len(seen) != 40 {
		t.Fatalf("covered %d nodes", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d on %d paths", v, c)
		}
	}
	// Heavy-path level bound: O(log n).
	if maxPathLevel(paths) > 7 {
		t.Fatalf("max level %d too deep for n=40", maxPathLevel(paths))
	}
}

func TestLayeredSolverOnFig1(t *testing.T) {
	g, inst := GridCongestedInstance(5)
	for _, spec := range []AggSpec{Sum, Min, Max} {
		nw := newNet(g, true)
		out, err := LayeredSolver{Seed: 7}.Solve(nw, inst, spec)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.Expected(spec)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s part %d: got %d want %d", spec.Name, i, out[i], want[i])
			}
		}
		if nw.Rounds() == 0 {
			t.Fatal("no rounds charged")
		}
	}
}

func TestLayeredSolverOnOneCongested(t *testing.T) {
	g, inst := rowInstance(4, 6)
	nw := newNet(g, true)
	out, err := LayeredSolver{Seed: 3}.Solve(nw, inst, Sum)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Expected(Sum)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("part %d: got %d want %d", i, out[i], want[i])
		}
	}
}

func TestLayeredSolverHighCongestion(t *testing.T) {
	g := graph.Grid(5, 5)
	inst := RandomCongestedInstance(g, 4, 3, 11)
	if err := inst.Validate(g); err != nil {
		t.Fatal(err)
	}
	if inst.Congestion() != 4 {
		t.Fatalf("congestion=%d, want 4", inst.Congestion())
	}
	nw := newNet(g, true)
	out, err := LayeredSolver{Seed: 5}.Solve(nw, inst, Min)
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Expected(Min)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("part %d: got %d want %d", i, out[i], want[i])
		}
	}
}

// TestLayeredSubNetworkRunsFaultFree pins where a request's fault plan
// reaches: the base network only. A delay-only plan stalls the base
// network's attachment hops, but the Lemma 16 layered sub-network is
// built without the plan, and its rounds reach the base network only as a
// charged number. So the "layered" engine records exactly the rounds and
// messages of a reliable run, every fault the trace counts is one of the
// base network's, and the aggregates are the reliable ones.
func TestLayeredSubNetworkRunsFaultFree(t *testing.T) {
	g := graph.Grid(5, 5)
	inst := RandomCongestedInstance(g, 4, 3, 11)
	run := func(plan *faultinject.Plan) ([]congest.Word, *simtrace.InMemory, *congest.Network) {
		tr := simtrace.NewInMemory()
		nw := congest.NewNetwork(g, congest.Options{Seed: 1, Supported: true, Trace: tr, Faults: plan})
		out, err := LayeredSolver{Seed: 5}.Solve(nw, inst, Min)
		if err != nil {
			t.Fatal(err)
		}
		return out, tr, nw
	}
	layered := func(tr *simtrace.InMemory) simtrace.EngineTotal {
		for _, e := range tr.Engines() {
			if e.Engine == simtrace.EngineLayered {
				return e
			}
		}
		t.Fatal("the trace recorded no layered engine")
		return simtrace.EngineTotal{}
	}
	want, reliable, _ := run(nil)
	got, faulty, nw := run(faultinject.MustNew(faultinject.Spec{Seed: 3, DelayProb: 0.3, MaxDelay: 3}))
	if !slices.Equal(got, want) {
		t.Fatalf("aggregates %v under a delay plan, want the reliable %v", got, want)
	}
	stats := nw.FaultStats()
	if stats.Delays == 0 {
		t.Fatal("the plan delayed nothing on the base network; the test would not exercise it")
	}
	if f, r := layered(faulty), layered(reliable); f != r {
		t.Fatalf("the layered sub-network ran %+v under the base plan, want the reliable %+v", f, r)
	}
	if c := faulty.CounterValue("fault.delays"); c != stats.Delays {
		t.Fatalf("the trace counts %d delays, the base network %d: a fault came from elsewhere", c, stats.Delays)
	}
}

func TestSolveOneCongestedWholeGraph(t *testing.T) {
	g := graph.Grid(4, 4)
	nw := newNet(g, true)
	all := make([]graph.NodeID, 16)
	for i := range all {
		all[i] = i
	}
	out, sc, err := SolveOneCongested(nw, shortcut.NewSkeleton(g), [][]graph.NodeID{all},
		func(_ int, v graph.NodeID) congest.Word { return 1 }, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 16 {
		t.Fatalf("count=%d", out[0])
	}
	if sc == nil || sc.Quality() <= 0 {
		t.Fatal("missing shortcut certificate")
	}
}

func TestRandomCongestedInstanceShape(t *testing.T) {
	g := graph.Grid(4, 4)
	inst := RandomCongestedInstance(g, 3, 2, 1)
	if err := inst.Validate(g); err != nil {
		t.Fatal(err)
	}
	if c := inst.Congestion(); c != 3 {
		t.Fatalf("congestion=%d, want 3", c)
	}
}

// Property: all three solvers agree with Expected on random congested
// instances (the layered solver) and 1-congested instances (all).
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomConnected(24, 12, 1, seed)
		parts := shortcut.TreePartition(g, 4)
		inst := &Instance{Parts: parts}
		for _, p := range parts {
			vals := make([]congest.Word, len(p))
			for i, v := range p {
				vals[i] = congest.Word(v*3 + 1)
			}
			inst.Values = append(inst.Values, vals)
		}
		want := inst.Expected(Sum)
		for _, solver := range []Solver{NaiveGlobalSolver{}, new(ShortcutSolver), LayeredSolver{Seed: seed}} {
			nw := newNet(g, true)
			out, err := solver.Solve(nw, inst, Sum)
			if err != nil {
				return false
			}
			for i := range want {
				if out[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: the layered solver is correct on p-congested instances for
// p in 2..4 with min aggregation.
func TestLayeredCongestedProperty(t *testing.T) {
	f := func(seed int64, pp uint8) bool {
		p := int(pp%3) + 2
		g := graph.Grid(4, 4)
		inst := RandomCongestedInstance(g, p, 3, seed)
		nw := newNet(g, true)
		out, err := LayeredSolver{Seed: seed}.Solve(nw, inst, Min)
		if err != nil {
			return false
		}
		want := inst.Expected(Min)
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// SolveOneCongested takes node-disjoint parts: an overlap is ErrCongested,
// and a node out of range is the shortcut validation's error, not a panic.
func TestSolveOneCongestedRejectsBadParts(t *testing.T) {
	g := graph.Grid(3, 3)
	one := func(int, graph.NodeID) congest.Word { return 1 }
	for _, c := range []struct {
		parts [][]graph.NodeID
		want  error
	}{
		{[][]graph.NodeID{{0, 1, 2}, {2, 5}}, ErrCongested},
		{[][]graph.NodeID{{0, 1}, {9}}, graph.ErrNodeRange},
		{[][]graph.NodeID{{0, 1}, {}}, shortcut.ErrEmptyPart},
	} {
		if _, _, err := SolveOneCongested(newNet(g, true), shortcut.NewSkeleton(g), c.parts, one, Sum); !errors.Is(err, c.want) {
			t.Fatalf("parts %v: err=%v, want %v", c.parts, err, c.want)
		}
	}
}

// BenchmarkLayeredSolve times one LayeredSolver.Solve of E7's largest
// instance: an 8-congested instance of four parts per layer on a 64-node
// random 4-regular graph, on a Supported-CONGEST network. Its embeddings
// build Ĝ_L with L up to 61.
func BenchmarkLayeredSolve(b *testing.B) {
	g := graph.RandomRegular(64, 4, 9)
	inst := RandomCongestedInstance(g, 8, 4, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw := congest.NewNetwork(g, congest.Options{Supported: true, Seed: 3})
		if _, err := (LayeredSolver{Seed: 3}).Solve(nw, inst, Min); err != nil {
			b.Fatal(err)
		}
	}
}
