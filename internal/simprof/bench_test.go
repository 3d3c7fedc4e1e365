package simprof

import (
	"strings"
	"testing"
)

func benchFixture() *BenchFile {
	return &BenchFile{
		Schema: BenchSchema,
		Mode:   "quick",
		Experiments: []BenchExp{
			{ID: "E1", Rounds: 100, Messages: 5000, MaxEdgeLoad: 40},
			{ID: "E2", Rounds: 0, Messages: 0, MaxEdgeLoad: 0},
			{ID: "E3", Rounds: 300, Messages: 90000, MaxEdgeLoad: 12},
		},
	}
}

func TestCompareBenchSelf(t *testing.T) {
	b := benchFixture()
	regs, err := CompareBench(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-compare found regressions: %v", regs)
	}
}

func TestCompareBenchFlagsInflation(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	cur.Experiments[0].Rounds = 111     // +11%
	cur.Experiments[2].Messages = 90001 // one message more
	cur.Experiments[2].MaxEdgeLoad = 13 // +8.3%: no allowance hides it
	cur.Experiments[0].WallMS = 1e9     // wall time never gated
	regs, err := CompareBench(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("regressions = %v, want rounds@E1, messages@E3 and max_edge_load@E3", regs)
	}
	if regs[0].ID != "E1" || regs[0].Metric != "rounds" {
		t.Fatalf("regs[0] = %v", regs[0])
	}
	if regs[1].ID != "E3" || regs[1].Metric != "messages" {
		t.Fatalf("regs[1] = %v", regs[1])
	}
	if regs[2].ID != "E3" || regs[2].Metric != "max_edge_load" {
		t.Fatalf("regs[2] = %v", regs[2])
	}
	if !strings.Contains(regs[0].String(), "rounds changed 100 -> 111") {
		t.Fatalf("String() = %q", regs[0].String())
	}
}

func TestCompareBenchZeroBaselineGrowth(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	cur.Experiments[1].MaxEdgeLoad = 1
	regs, err := CompareBench(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "max_edge_load" {
		t.Fatalf("regressions = %v, want max_edge_load@E2", regs)
	}
}

// The model costs are deterministic, so a lower one is a change to the
// model like any other and is flagged until the baseline moves with it.
func TestCompareBenchFlagsModelImprovements(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	cur.Experiments[0].Rounds = 10      // big improvement
	cur.Experiments[2].MaxEdgeLoad = 11 // small improvement
	regs, err := CompareBench(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 || regs[0].ID != "E1" || regs[0].Metric != "rounds" ||
		regs[1].ID != "E3" || regs[1].Metric != "max_edge_load" {
		t.Fatalf("regressions = %v, want rounds@E1 and max_edge_load@E3", regs)
	}
	if !strings.Contains(regs[0].String(), "rounds changed 100 -> 10") {
		t.Fatalf("String() = %q", regs[0].String())
	}
}

// Wall time is never gated, so a faster run passes, and so does an
// experiment the baseline does not know yet.
func TestCompareBenchImprovementsAndNewExperimentsPass(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	old.Experiments[0].WallMS = 1e9
	cur.Experiments[0].WallMS = 1 // big wall-time improvement
	cur.Experiments = append(cur.Experiments, BenchExp{ID: "E4", Rounds: 7})
	regs, err := CompareBench(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
}

func TestCompareBenchMissingExperiment(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	cur.Experiments = cur.Experiments[:2]
	regs, err := CompareBench(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].ID != "E3" {
		t.Fatalf("regressions = %v, want missing@E3", regs)
	}
}

func TestCompareBenchModeAndSchemaMismatch(t *testing.T) {
	old, cur := benchFixture(), benchFixture()
	cur.Mode = "full"
	if _, err := CompareBench(old, cur); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	cur = benchFixture()
	cur.Schema = BenchSchema + 1
	if _, err := CompareBench(old, cur); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}
