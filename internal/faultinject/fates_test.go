package faultinject_test

// The fate-by-engine contract of DESIGN.md §9 as one table: every fate a
// plan can give a send, in each engine that consults a Link. One word
// crosses from node 0 to node 1 of a one-edge path; each row picks the
// first fault seed whose decisions give the word its fate in round 1 (and
// deliver it in round 2, when the engine offers it again) and pins what
// the engine charges, how many copies the receiver takes and what becomes
// of the send.

import (
	"testing"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/ncc"
)

// fateRun is what one engine did with the word.
type fateRun struct {
	charged   int64 // words charged (NCC: messages counted)
	delivered int   // copies the receiver took
	rounds    int
	failed    bool // the primitive reported an incomplete run
	stats     faultinject.Stats
}

// runExchange sends the word in a first Exchange and nothing in a second,
// in which a delayed word arrives stale.
func runExchange(t *testing.T, plan *faultinject.Plan) fateRun {
	nw := congest.NewNetwork(graph.Path(2), congest.Options{Seed: 1, Faults: plan})
	var r fateRun
	for i := 0; i < 2; i++ {
		first := i == 0
		nw.Exchange(
			func(v graph.NodeID, h graph.Half) (congest.Word, bool) { return 5, first && v == 0 },
			func(v graph.NodeID, h graph.Half, w congest.Word) {
				if v != 1 || w != 5 {
					t.Fatalf("node %d received %d, want node 1 to receive 5", v, w)
				}
				r.delivered++
			},
		)
	}
	m := nw.Metrics()
	r.charged, r.rounds, r.stats = m.Messages, m.Rounds, nw.FaultStats()
	return r
}

// runTree sums the values 5 (node 0) and 1 (node 1, the root) over the
// path's one tree with AggregateMany; the root's total counts the
// deliveries of node 0's word.
func runTree(t *testing.T, plan *faultinject.Plan) fateRun {
	g := graph.Path(2)
	nw := congest.NewNetwork(g, congest.Options{Seed: 1, Faults: plan})
	set, err := congest.NewTreeSet(g, []*graph.PartTree{graph.BFSTree(g, 1)})
	if err != nil {
		t.Fatal(err)
	}
	vals := []congest.Word{5, 1}
	got, err := nw.AggregateMany(set, func(_ int, v graph.NodeID) congest.Word { return vals[v] }, congest.AggSum)
	r := fateRun{failed: err != nil}
	if err == nil {
		r.delivered = int((got[0] - 1) / 5)
	}
	m := nw.Metrics()
	r.charged, r.rounds, r.stats = m.Messages, m.Rounds, nw.FaultStats()
	return r
}

// runNCC delivers the word as one clique message.
func runNCC(t *testing.T, plan *faultinject.Plan) fateRun {
	nw := ncc.NewNetwork(2, nil, plan)
	var r fateRun
	_, err := nw.Deliver([]ncc.Message{{From: 0, To: 1, Payload: 5}}, func(m ncc.Message) {
		if m.To != 1 || m.Payload != 5 {
			t.Fatalf("clique delivered %+v, want 5 to node 1", m)
		}
		r.delivered++
	})
	r.failed = err != nil
	r.charged, r.rounds, r.stats = nw.Messages(), nw.Rounds(), nw.FaultStats()
	return r
}

// planWhere returns the plan of the first fault seed in 1..1000 under spec
// whose decisions satisfy ok.
func planWhere(t *testing.T, spec faultinject.Spec, ok func(p *faultinject.Plan) bool) *faultinject.Plan {
	t.Helper()
	for seed := int64(1); seed <= 1000; seed++ {
		spec.Seed = seed
		if p := faultinject.MustNew(spec); ok(p) {
			return p
		}
	}
	t.Fatalf("no fault seed in 1..1000 under %+v makes the wanted decisions", spec)
	return nil
}

func TestFateByEngine(t *testing.T) {
	type verdictFn = func(p *faultinject.Plan, round int) faultinject.Verdict
	// The word's verdict in a round: Exchange and the tree scheduler ask
	// about directed edge 0 (node 0 → node 1), the clique about the pair.
	link := func(p *faultinject.Plan, round int) faultinject.Verdict { return p.Link(round, 0) }
	clique := func(p *faultinject.Plan, round int) faultinject.Verdict { return p.Clique(round, 0, 1) }
	// Directed edge 1 carries AggregateMany's broadcast back to node 0; it
	// delivers in every round a run reaches.
	quiet := func(p *faultinject.Plan) bool {
		for r := 1; r <= 3; r++ {
			if p.Link(r, 1).Fate != faultinject.FateDeliver {
				return false
			}
		}
		return true
	}
	// fated gives the word fate f in round 1 (a delay of one round) and
	// delivers it when the engine offers it again in round 2.
	fated := func(f faultinject.Fate) func(*faultinject.Plan, verdictFn) bool {
		return func(p *faultinject.Plan, v verdictFn) bool {
			return v(p, 1).Fate == f && v(p, 2).Fate == faultinject.FateDeliver && quiet(p)
		}
	}
	// crashed has node down crash-stop in round 1 and node up stay up.
	crashed := func(down, up int) func(*faultinject.Plan, verdictFn) bool {
		return func(p *faultinject.Plan, _ verdictFn) bool { return p.Crashed(down, 1) && !p.Crashed(up, 3) }
	}
	crash := faultinject.Spec{CrashProb: 0.5, CrashWindow: 1}
	fates := map[string]struct {
		spec   faultinject.Spec
		choose func(*faultinject.Plan, verdictFn) bool
	}{
		"drop":             {faultinject.Spec{DropProb: 0.5}, fated(faultinject.FateDrop)},
		"dup":              {faultinject.Spec{DupProb: 0.5}, fated(faultinject.FateDup)},
		"delay":            {faultinject.Spec{DelayProb: 0.5, MaxDelay: 1}, fated(faultinject.FateDelay)},
		"receiver crashed": {crash, crashed(1, 0)},
		"sender crashed":   {crash, crashed(0, 1)},
	}
	type engine struct {
		name    string
		run     func(*testing.T, *faultinject.Plan) fateRun
		verdict verdictFn
	}
	exchange := engine{"Exchange", runExchange, link}
	tree := engine{"tree scheduler", runTree, link}
	clq := engine{"ncc.Deliver", runNCC, clique}
	drop := faultinject.Stats{Drops: 1}
	dup := faultinject.Stats{Dups: 1}
	delay := faultinject.Stats{Delays: 1}
	lost := faultinject.Stats{CrashDrops: 1, Crashes: 1}
	// Reliable runs: Exchange charges 1 word in 2 rounds (the second
	// exchange is empty), the tree scheduler 2 in 2 (the up-sweep, then
	// the broadcast), the clique 1 in 1.
	for _, row := range []struct {
		fate   string
		engine engine
		want   fateRun
	}{
		// A drop is charged and the send retried in the next round; the
		// clique spends a send slot on it but counts only the delivery.
		{"drop", exchange, fateRun{charged: 2, delivered: 1, rounds: 3, stats: drop}},
		{"drop", tree, fateRun{charged: 3, delivered: 1, rounds: 3, stats: drop}},
		{"drop", clq, fateRun{charged: 1, delivered: 1, rounds: 2, stats: drop}},
		// A duplicate is charged twice, and every engine's receiver takes
		// it once.
		{"dup", exchange, fateRun{charged: 2, delivered: 1, rounds: 2, stats: dup}},
		{"dup", tree, fateRun{charged: 3, delivered: 1, rounds: 2, stats: dup}},
		{"dup", clq, fateRun{charged: 2, delivered: 1, rounds: 1, stats: dup}},
		// Exchange charges a delayed word and stashes it until a later
		// exchange, where it arrives stale; the tree scheduler and the
		// clique charge nothing and offer the send again after the delay.
		{"delay", exchange, fateRun{charged: 1, delivered: 1, rounds: 2, stats: delay}},
		{"delay", tree, fateRun{charged: 2, delivered: 1, rounds: 3, stats: delay}},
		{"delay", clq, fateRun{charged: 1, delivered: 1, rounds: 2, stats: delay}},
		// A send to a crashed receiver is charged (the clique: a send slot)
		// and lost, so the tree's sum cannot complete.
		{"receiver crashed", exchange, fateRun{charged: 1, rounds: 2, stats: lost}},
		{"receiver crashed", tree, fateRun{charged: 1, rounds: 1, failed: true, stats: lost}},
		{"receiver crashed", clq, fateRun{rounds: 1, stats: lost}},
		// A crashed sender sends nothing: Exchange never produces the word;
		// the tree scheduler and the clique drop its queued send unsent.
		{"sender crashed", exchange, fateRun{rounds: 2, stats: faultinject.Stats{Crashes: 1}}},
		{"sender crashed", tree, fateRun{rounds: 1, failed: true, stats: lost}},
		{"sender crashed", clq, fateRun{rounds: 1, stats: lost}},
	} {
		t.Run(row.fate+"/"+row.engine.name, func(t *testing.T) {
			f := fates[row.fate]
			plan := planWhere(t, f.spec, func(p *faultinject.Plan) bool { return f.choose(p, row.engine.verdict) })
			if got := row.engine.run(t, plan); got != row.want {
				t.Errorf("got %+v, want %+v", got, row.want)
			}
		})
	}
}
