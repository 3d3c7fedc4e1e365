package distlap_test

// Facade tests for fault-injected requests: FaultSpec validation, the
// reliable fast path staying untouched, and a faulty request surfacing the
// recovery metrics deterministically.

import (
	"context"
	"slices"
	"testing"

	"distlap"
)

func TestNewFaultPlanValidates(t *testing.T) {
	if _, err := distlap.NewFaultPlan(distlap.FaultSpec{DropProb: 1.5}); err == nil {
		t.Fatalf("DropProb=1.5 accepted")
	}
	if _, err := distlap.NewFaultPlan(distlap.FaultSpec{DropProb: 0.6, DupProb: 0.6}); err == nil {
		t.Fatalf("fate probabilities summing past 1 accepted")
	}
	p, err := distlap.NewFaultPlan(distlap.FaultSpec{})
	if err != nil || p != nil {
		t.Fatalf("zero spec: plan=%v err=%v, want nil/nil (reliable path)", p, err)
	}
}

func TestNilFaultPlanIsReliableFastPath(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(3)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := inst.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	var nilPlan *distlap.FaultPlan
	withNil, err := inst.Solve(context.Background(), b, distlap.WithRequestFaults(nilPlan))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nil fault plan", plain, withNil)
	if plain.Metrics.Attempts != 0 || plain.Metrics.Degraded {
		t.Fatalf("reliable solve carries recovery metrics: %+v", plain.Metrics)
	}
}

func TestFaultyRequestRecoversDeterministically(t *testing.T) {
	g, b := parityGraph()
	inst, err := distlap.NewSolver(distlap.WithSeed(3)).Prepare(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := distlap.NewFaultPlan(distlap.FaultSpec{Seed: 11, DropProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *distlap.Result {
		res, err := inst.Solve(context.Background(), b, distlap.WithRequestFaults(plan))
		if err != nil {
			t.Fatalf("faulty solve: %v", err)
		}
		return res
	}
	a, c := run(), run()
	sameResult(t, "faulty request", a, c)
	if a.Metrics.Attempts < 1 || a.Metrics.FaultsObserved == 0 {
		t.Fatalf("faulty solve reported no recovery activity: %+v", a.Metrics)
	}
	if a.Metrics.Attempts != c.Metrics.Attempts ||
		a.Metrics.FaultsObserved != c.Metrics.FaultsObserved ||
		a.Metrics.Degraded != c.Metrics.Degraded {
		t.Fatalf("recovery metrics diverged: %+v vs %+v", a.Metrics, c.Metrics)
	}
}

// A duplicating fault plan delivers some crossings twice. The layered
// aggregation routes packets along paths, and a packet must advance one
// hop per crossing, not per arrival, so a faulty request returns the
// reliable values (a duplicate used to push a packet past its path's end).
func TestFaultyAggregatePartsUnderDuplication(t *testing.T) {
	var g *distlap.Graph
	for _, f := range distlap.Families() {
		if f.Name == "grid" {
			g = f.Make(144)
		}
	}
	// Parts: the radius-3 ball around every fifth node, found by BFS.
	inst := &distlap.PartwiseInstance{}
	for c := 0; c < g.N(); c += 5 {
		dist := map[int]int{c: 0}
		ball := []int{c}
		for i := 0; i < len(ball); i++ {
			v := ball[i]
			for _, h := range g.Neighbors(v) {
				if _, ok := dist[h.To]; !ok && dist[v] < 3 {
					dist[h.To] = dist[v] + 1
					ball = append(ball, h.To)
				}
			}
		}
		vals := make([]int64, len(ball))
		for i, v := range ball {
			vals[i] = int64((7*v + c) % 23)
		}
		inst.Parts = append(inst.Parts, ball)
		inst.Values = append(inst.Values, vals)
	}
	ctx := context.Background()
	prep, err := distlap.NewSolver(distlap.WithSeed(3)).Prepare(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.AggregateParts(ctx, inst, distlap.AggMin)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		plan, err := distlap.NewFaultPlan(distlap.FaultSpec{Seed: seed, DupProb: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.AggregateParts(ctx, inst, distlap.AggMin, distlap.WithRequestFaults(plan))
		if err != nil {
			t.Fatalf("fault seed %d: %v", seed, err)
		}
		if !slices.Equal(got.Values, want.Values) {
			t.Fatalf("fault seed %d: values %v, want the reliable %v", seed, got.Values, want.Values)
		}
	}
}
