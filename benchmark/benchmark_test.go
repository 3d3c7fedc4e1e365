package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"distlap"
)

// smokeOps is the operation-list length of every workload in the smoke
// runs: two serve-mix segments, two solves, a pass of two experiments.
var smokeOps = map[string]int{
	"serve-mix": 2 * segmentLen, "solve-grid": 2, "solve-expander": 2, "faulty-hybrid": 2, "paper-suite": 2,
}

// TestWorkloadsSmoke runs one measured pass of every workload at smoke size
// and requires every check to pass and every end-to-end metric to be
// positive.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl, err := newWorkload(name, 7, smokeOps[name], "..")
			if err != nil {
				t.Fatal(err)
			}
			res, err := measured(context.Background(), wl, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != wl.size() {
				t.Fatalf("correct=%v attempted=%d failed=%d, want one clean pass of %d",
					res.Correct, res.Attempted, res.Failed, wl.size())
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
		})
	}
}

// TestTracedSmoke makes a traced serve-mix run and checks that it measures
// every per-layer metric and writes the spans, and that the phase split of
// the written solve spans adds up to their root spans.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer probe and a full experiment pass")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	spansPath := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.Chdir(".."); err != nil { // traced runs work from the repository root
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	wl, err := newWorkload("serve-mix", 3, smokeOps["serve-mix"], ".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := traced(context.Background(), wl, spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[int64][]span{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var solves [][]span
	for _, op := range byOp {
		if op[0].Name == "distlap.solve" {
			solves = append(solves, op)
		}
	}
	if len(solves) == 0 {
		t.Fatal("no traced solves in the spans file")
	}
	checkSplitAddsUp(t, solves)
}

// checkSplitAddsUp requires the listed phase self times plus the untracked
// time to equal the mean root duration within 2 %.
func checkSplitAddsUp(t *testing.T, ops [][]span) {
	t.Helper()
	self, _, untracked := phaseSplit(ops)
	total := untracked
	for _, ms := range self {
		total += ms
	}
	var root float64
	for _, op := range ops {
		root += float64(op[0].dur()) / 1e6
	}
	root /= float64(len(ops))
	if math.Abs(total-root) > 0.02*root {
		t.Errorf("phases + untracked = %g ms, root spans = %g ms", total, root)
	}
}

// TestGeneratorIsPureFunctionOfSeed requires identical request bytes for
// one seed and a different order of the same requests for another, so that
// the model cost per operation does not depend on the seed.
func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	const ops = 200 // two blocks
	requests := func(seed int64) []string {
		w, err := newServeMix(ops, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, op := range w.ops {
			out = append(out, op.method+" "+op.path+" "+string(op.body))
		}
		for _, b := range w.loads {
			out = append(out, string(b))
		}
		return out
	}
	checkOrders(t, "serve-mix", requests(11), requests(11), requests(12))

	w, err := newServeMix(ops, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for start := 0; start < len(w.ops); start += segmentLen {
		seg := w.ops[start : start+segmentLen]
		if seg[0].kind != "load" {
			t.Errorf("segment at %d opens with %s, not a load", start, seg[0].kind)
		}
		queried := map[*hotGraph]bool{}
		for _, op := range seg {
			kinds[op.kind]++
			queried[op.hot] = true
		}
		for _, h := range w.hot {
			if !queried[h] {
				t.Errorf("segment at %d does not query %s", start, h.id)
			}
		}
	}
	want := map[string]int{"solve": 110, "batch": 20, "flow": 30, "mst": 24, "load": 10, "list": 6}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("mix of two blocks is %v, want %v", kinds, want)
	}
	if share := w.repeatShare(); share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about 0.25", share)
	}

	rhs := func(seed int64) []string {
		w, err := newSolveLoad(graphSpec{"grid", 64}, distlap.ModeUniversal, nil, 16, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i, b := range w.bs {
			out = append(out, fmt.Sprint(w.seeds[i])+floatsKey(b))
		}
		return out
	}
	checkOrders(t, "solve loop", rhs(5), rhs(5), rhs(6))
}

// checkOrders requires a and b, generated from one seed, to be equal, and
// c, from another, to hold the same requests in another order.
func checkOrders(t *testing.T, name string, a, b, c []string) {
	t.Helper()
	if !slices.Equal(a, b) {
		t.Errorf("%s: one seed generated different requests twice", name)
	}
	if slices.Equal(a, c) {
		t.Errorf("%s: two seeds generated the same request order", name)
	}
	a, c = slices.Clone(a), slices.Clone(c)
	slices.Sort(a)
	slices.Sort(c)
	if !slices.Equal(a, c) {
		t.Errorf("%s: two seeds generated different sets of requests", name)
	}
}

// TestSelfTime checks self-time arithmetic and the phase split on
// synthetic nested spans.
func TestSelfTime(t *testing.T) {
	// root [0,100] ⊃ solve [10,90] ⊃ {reduce [20,50] ⊃ ncc-up [25,45], matvec [60,70] ⊃ halo [62,66]}
	op := []span{
		{ID: 0, Parent: -1, Name: "distlap.solve", StartNS: 0, EndNS: 100e6},
		{ID: 1, Parent: 0, Name: "solve", StartNS: 10e6, EndNS: 90e6},
		{ID: 2, Parent: 1, Name: "reduce", StartNS: 20e6, EndNS: 50e6, Messages: 10},
		{ID: 3, Parent: 2, Name: "ncc-up", StartNS: 25e6, EndNS: 45e6, Messages: 30},
		{ID: 4, Parent: 1, Name: "matvec", StartNS: 60e6, EndNS: 70e6, Messages: 5},
		{ID: 5, Parent: 4, Name: "halo", StartNS: 62e6, EndNS: 66e6, Messages: 3},
	}
	ix := indexSpans(op)
	wantSelf := []int64{20e6, 40e6, 10e6, 20e6, 6e6, 4e6}
	for i, want := range wantSelf {
		if got := ix.self(i); got != want {
			t.Errorf("self(%s) = %d, want %d", op[i].Name, got, want)
		}
	}
	if got := ix.path(3); got != "solve.reduce.ncc-up" {
		t.Errorf("path = %q", got)
	}
	self, perMsg, untracked := phaseSplit([][]span{op})
	// ncc-up is listed by name; the unlisted halo span belongs to solve.matvec.
	want := map[string]float64{"solve": 40, "solve.reduce": 10, "ncc-up": 20, "solve.matvec": 10}
	for path, ms := range want {
		if self[path] != ms {
			t.Errorf("self[%s] = %g ms, want %g", path, self[path], ms)
		}
	}
	if untracked != 20 {
		t.Errorf("untracked = %g ms, want 20", untracked)
	}
	if perMsg["solve.reduce"] != 1e6 || perMsg["ncc-up"] != 20e6/30.0 || perMsg["solve.matvec"] != 10e6/8.0 {
		t.Errorf("ns/msg = %v", perMsg)
	}
	checkSplitAddsUp(t, [][]span{op})
}

// TestNoFeedback requires a solve under the span collector to return the
// exact bits of the untraced solve, reliable and under faults.
func TestNoFeedback(t *testing.T) {
	ctx := context.Background()
	g, err := graphSpec{"grid", 64}.build()
	if err != nil {
		t.Fatal(err)
	}
	spec := benchFaults(4)
	plan, err := distlap.NewFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := randomRHS(g.N(), rand.New(rand.NewSource(4)))
	for _, mode := range []distlap.Mode{distlap.ModeUniversal, distlap.ModeHybrid} {
		inst, err := distlap.NewSolver(distlap.WithMode(mode), distlap.WithEps(solveEps)).Prepare(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]distlap.ReqOption{nil, {distlap.WithRequestFaults(plan)}} {
			plain, err := inst.Solve(ctx, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			tr := newRecorder().begin("distlap.solve")
			traced, err := inst.Solve(ctx, b, append(opts, distlap.WithRequestTrace(tr))...)
			tr.finish()
			if err != nil {
				t.Fatal(err)
			}
			if floatsKey(plain.X) != floatsKey(traced.X) {
				t.Errorf("%s (faults=%v): traced X differs from untraced X", mode, opts != nil)
			}
			if len(tr.spans) < 2 {
				t.Errorf("%s: collector saw no phases", mode)
			}
		}
	}
}

// TestBenchmarkJSONMatches requires BENCHMARK.json to list exactly the
// workloads and metrics the program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(cfg.Workloads), len(workloadNames))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// TestBadFlags requires usage errors to exit 2 without a result line.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"--no-such-flag"}, {"--workload", "nope"}} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
