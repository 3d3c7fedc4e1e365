package faultinject_test

import (
	"strings"
	"testing"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/graph"
	"distlap/internal/ncc"
	"distlap/internal/simtrace"
)

// TestTraceCountersMatchStats pins DESIGN.md §9's promise that every
// injected event raises its fault.<kind>s counter: on every engine and
// under every fault mix, each fault.* counter an InMemory collector saw
// equals the matching Stats field, including the bulk losses (a crashed
// sender's queue, a stashed word whose receiver died, sends abandoned at
// the Exchange retry cap) that stream no gauge sample.
func TestTraceCountersMatchStats(t *testing.T) {
	specs := []struct {
		name string
		spec faultinject.Spec
	}{
		{"crash", faultinject.Spec{Seed: 5, CrashProb: 0.2, CrashWindow: 6}},
		{"storm", faultinject.Spec{
			Seed: 6, DropProb: 0.1, DupProb: 0.05, DelayProb: 0.2, MaxDelay: 4,
			CrashProb: 0.2, CrashWindow: 10, FlakyLinkProb: 0.2,
		}},
		{"all-drop", faultinject.Spec{Seed: 7, DropProb: 1}},
	}
	g := graph.Grid(6, 6)
	trees, err := congest.NewTreeSet(g, []*graph.PartTree{graph.BFSTree(g, 0), graph.BFSTree(g, 35), graph.BFSTree(g, 14)})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name string
		run  func(*faultinject.Plan, simtrace.Collector) faultinject.Stats
	}{
		{"Exchange", func(p *faultinject.Plan, tr simtrace.Collector) faultinject.Stats {
			nw := congest.NewNetwork(g, congest.Options{Seed: 3, Faults: p, Trace: tr})
			for r := 0; r < 12; r++ {
				nw.Exchange(
					func(v graph.NodeID, h graph.Half) (congest.Word, bool) { return congest.Word(v), true },
					func(graph.NodeID, graph.Half, congest.Word) {},
				)
			}
			return nw.FaultStats()
		}},
		{"AggregateMany", func(p *faultinject.Plan, tr simtrace.Collector) faultinject.Stats {
			nw := congest.NewNetwork(g, congest.Options{Seed: 3, Faults: p, Trace: tr})
			// Faults may leave an aggregation incomplete; only the tally matters here.
			_, _ = nw.AggregateMany(trees, func(int, graph.NodeID) congest.Word { return 1 }, congest.AggSum)
			return nw.FaultStats()
		}},
		{"ncc.Deliver", func(p *faultinject.Plan, tr simtrace.Collector) faultinject.Stats {
			nw := ncc.NewNetwork(g.N(), tr, p)
			var msgs []ncc.Message
			for v := 0; v < g.N(); v++ {
				for k := 1; k <= 8; k++ {
					msgs = append(msgs, ncc.Message{From: v, To: (v + 5*k) % g.N(), Payload: congest.Word(v)})
				}
			}
			// A starved schedule ends in ErrFaultBudget; only the tally matters here.
			_, _ = nw.Deliver(msgs, func(ncc.Message) {})
			return nw.FaultStats()
		}},
	}
	for _, sc := range specs {
		for _, eng := range engines {
			t.Run(sc.name+"/"+eng.name, func(t *testing.T) {
				mem := simtrace.NewInMemory()
				st := eng.run(faultinject.MustNew(sc.spec), mem)
				if st.Total() == 0 {
					t.Fatalf("the plan injected nothing: %+v", st)
				}
				want := map[string]int64{
					"fault.drops":       st.Drops,
					"fault.dups":        st.Dups,
					"fault.delays":      st.Delays,
					"fault.crash-drops": st.CrashDrops,
					"fault.crashes":     int64(st.Crashes),
				}
				for name, v := range want {
					if got := mem.CounterValue(name); got != v {
						t.Errorf("counter %s = %d, Stats says %d", name, got, v)
					}
				}
				for _, c := range mem.Counters() {
					if _, ok := want[c.Name]; strings.HasPrefix(c.Name, "fault.") && !ok {
						t.Errorf("unexpected fault counter %s = %d", c.Name, c.Value)
					}
				}
			})
		}
	}
}
