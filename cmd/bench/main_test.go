package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"distlap/internal/simprof"
)

// TestQuickBenchWithVerify runs the whole quick suite with the sequential
// parity oracle enabled and checks the emitted BENCH file's invariants.
func TestQuickBenchWithVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := run([]string{"-quick", "-label", "test", "-parallel", "2", "-verify", "-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc simprof.BenchFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCH file is not valid JSON: %v", err)
	}
	if doc.Schema != simprof.BenchSchema {
		t.Errorf("schema: got %d, want %d", doc.Schema, simprof.BenchSchema)
	}
	if doc.Mode != "quick" || doc.Label != "test" || doc.Parallel != 2 {
		t.Errorf("header fields wrong: %+v", doc)
	}
	if len(doc.Experiments) != 15 {
		t.Fatalf("got %d experiment records, want 15", len(doc.Experiments))
	}
	for _, e := range doc.Experiments {
		if e.WallMS < 0 || e.Rows <= 0 {
			t.Errorf("%s: implausible record %+v", e.ID, e)
		}
		// Every experiment drives at least one network, so communication
		// metrics must be present (E3/E4 are pure computation and may be 0).
		if e.Rounds < 0 || e.Messages < 0 || e.MaxEdgeLoad < 0 {
			t.Errorf("%s: negative metric %+v", e.ID, e)
		}
	}
	if doc.Speedup <= 0 {
		t.Errorf("verify run must record a speedup, got %v", doc.Speedup)
	}

	// Regression gating on the just-measured data: the run must pass
	// against its own BENCH file and fail against a synthetically inflated
	// baseline (wall time stays exempt).
	if err := compareAgainst(out, &doc); err != nil {
		t.Errorf("self-compare must pass: %v", err)
	}
	inflated := doc
	inflated.Experiments = append([]simprof.BenchExp(nil), doc.Experiments...)
	for i := range inflated.Experiments {
		inflated.Experiments[i].WallMS *= 100 // never gated
	}
	if err := compareAgainst(out, &inflated); err != nil {
		t.Errorf("wall-time inflation must pass the gate: %v", err)
	}
	deflatedBaseline := filepath.Join(t.TempDir(), "BENCH_old.json")
	old := doc
	old.Experiments = append([]simprof.BenchExp(nil), doc.Experiments...)
	for i := range old.Experiments {
		// Shrink the recorded baseline so the current run reads as a
		// rounds change on every experiment with nonzero rounds.
		old.Experiments[i].Rounds = old.Experiments[i].Rounds * 2 / 3
	}
	data, err = json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(deflatedBaseline, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareAgainst(deflatedBaseline, &doc); err == nil {
		t.Error("compare against a deflated baseline must fail")
	}
}

// TestBadFlag checks flag errors surface instead of running the suite.
func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("want flag error")
	}
}
