// Command bench executes the experiment suite E1–E14 and records the
// repo's perf trajectory as BENCH_<label>.json: per-experiment wall time,
// measured rounds, word-messages, and maximum directed-edge load, plus
// whole-suite totals. -compare gates the deterministic metrics against a
// committed baseline so perf regressions fail loudly instead of shipping
// silently.
//
// Usage:
//
//	bench                       # full sweeps, BENCH_local.json
//	bench -quick -label ci      # reduced sweeps, BENCH_ci.json
//	bench -parallel 8           # worker-pool width (default GOMAXPROCS)
//	bench -verify               # also run at -parallel 1 and assert parity
//	bench -compare BENCH_seed.json            # exit nonzero on any model-cost change
//	bench -wall BENCH_seed.json               # advisory wall deltas, never fails
//
// Schema stability (documented in README "Benchmarking"): `schema` is
// bumped on any incompatible change; `rounds`, `messages`, `max_edge_load`
// and `rows` are deterministic for a given code version and mode (they are
// simulator measurements, independent of -parallel and of the host);
// `*_wall_ms` and `speedup` are wall-clock observations and vary by
// machine and load. -compare gates only the deterministic metrics, exactly:
// any change, up or down, fails — wall time is reported but never gated. Experiments appear in canonical suite
// order.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"distlap/internal/experiments"
	"distlap/internal/simprof"
	"distlap/internal/simtrace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	label := fs.String("label", "local", "label naming the output file BENCH_<label>.json")
	quick := fs.Bool("quick", false, "reduced parameter sweeps")
	parallel := fs.Int("parallel", 0, "sweep-point worker-pool width (0 = GOMAXPROCS)")
	out := fs.String("out", "", "output path (default BENCH_<label>.json)")
	verify := fs.Bool("verify", false, "re-run every experiment at -parallel 1 and require byte-identical tables and traces")
	compare := fs.String("compare", "", "baseline BENCH_<label>.json to gate against; any model-cost change exits nonzero")
	wallBase := fs.String("wall", "", "baseline BENCH_<label>.json to print wall-time deltas against; advisory, never fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}

	doc := simprof.BenchFile{
		Schema:     simprof.BenchSchema,
		Label:      *label,
		Mode:       "full",
		Parallel:   *parallel,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if doc.Parallel == 0 {
		doc.Parallel = doc.GOMAXPROCS
	}
	if *quick {
		doc.Mode = "quick"
	}

	for _, id := range experiments.IDs() {
		table, trace, mem, wall, err := runOne(id, *quick, *parallel)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		rec := simprof.BenchExp{ID: id, WallMS: toMS(wall)}
		rec.Rows = bytes.Count(table, []byte("\n"))
		for _, e := range mem.Engines() {
			rec.Rounds += e.Rounds
			rec.Messages += e.Messages
			for _, top := range mem.TopEdges(e.Engine, 1) {
				if top.Words > rec.MaxEdgeLoad {
					rec.MaxEdgeLoad = top.Words
				}
			}
		}
		doc.TotalWallMS += rec.WallMS

		if *verify {
			seqTable, seqTrace, _, seqWall, err := runOne(id, *quick, 1)
			if err != nil {
				return fmt.Errorf("%s (sequential oracle): %w", id, err)
			}
			if !bytes.Equal(table, seqTable) {
				return fmt.Errorf("%s: table at -parallel %d diverged from the sequential oracle", id, doc.Parallel)
			}
			if !bytes.Equal(trace, seqTrace) {
				return fmt.Errorf("%s: JSONL trace at -parallel %d diverged from the sequential oracle", id, doc.Parallel)
			}
			doc.SequentialWallMS += toMS(seqWall)
		}
		doc.Experiments = append(doc.Experiments, rec)
		fmt.Fprintf(os.Stderr, "%-4s %8.1fms  rounds=%d messages=%d maxload=%d\n",
			id, rec.WallMS, rec.Rounds, rec.Messages, rec.MaxEdgeLoad)
	}
	if *verify && doc.TotalWallMS > 0 {
		doc.Speedup = doc.SequentialWallMS / doc.TotalWallMS
	}

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%s mode, parallel=%d, total %.1fms)\n",
		path, doc.Mode, doc.Parallel, doc.TotalWallMS)
	if *verify {
		fmt.Fprintf(os.Stderr, "bench: parity verified against the sequential oracle; speedup %.2fx\n", doc.Speedup)
	}
	if *compare != "" {
		if err := compareAgainst(*compare, &doc); err != nil {
			return err
		}
	}
	if *wallBase != "" {
		reportWall(*wallBase, &doc)
	}
	return nil
}

// reportWall prints per-experiment wall-time deltas against the baseline
// file. Wall time varies by machine and load, so this is advisory output
// only: it never affects the exit status, even if the baseline is missing.
func reportWall(baselinePath string, doc *simprof.BenchFile) {
	baseline, err := simprof.LoadBench(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: wall: %v (advisory step, continuing)\n", err)
		return
	}
	base := make(map[string]float64, len(baseline.Experiments))
	for _, e := range baseline.Experiments {
		base[e.ID] = e.WallMS
	}
	fmt.Fprintf(os.Stderr, "bench: wall deltas vs %s (advisory — wall time is never gated):\n", baselinePath)
	for _, e := range doc.Experiments {
		b, ok := base[e.ID]
		if !ok || b <= 0 {
			fmt.Fprintf(os.Stderr, "  %-4s %8.1fms  (no baseline)\n", e.ID, e.WallMS)
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-4s %8.1fms  baseline %8.1fms  %+6.1f%%\n",
			e.ID, e.WallMS, b, 100*(e.WallMS-b)/b)
	}
	if baseline.TotalWallMS > 0 {
		fmt.Fprintf(os.Stderr, "  total %7.1fms  baseline %8.1fms  %+6.1f%%\n",
			doc.TotalWallMS, baseline.TotalWallMS, 100*(doc.TotalWallMS-baseline.TotalWallMS)/baseline.TotalWallMS)
	}
}

// compareAgainst gates doc's deterministic metrics against the baseline
// file; any difference is an error (nonzero exit).
func compareAgainst(baselinePath string, doc *simprof.BenchFile) error {
	baseline, err := simprof.LoadBench(baselinePath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	regs, err := simprof.CompareBench(baseline, doc)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "bench: CHANGED", r)
		}
		return fmt.Errorf("compare: %d metric(s) differ from %s", len(regs), baselinePath)
	}
	fmt.Fprintf(os.Stderr, "bench: compare ok — every deterministic metric equals %s (wall time is reported, never gated)\n",
		baselinePath)
	return nil
}

// runOne executes one experiment under a fresh JSONL collector and returns
// the rendered table bytes, the flushed trace bytes, the embedded
// aggregates, and the wall time of the (parallel) run.
func runOne(id string, quick bool, parallel int) ([]byte, []byte, *simtrace.InMemory, time.Duration, error) {
	var trace bytes.Buffer
	jsonl := simtrace.NewJSONL(&trace)
	start := time.Now()
	tbl, err := experiments.RunWith(id, experiments.Config{
		Quick: quick, Trace: jsonl, Parallel: parallel,
	})
	wall := time.Since(start)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := jsonl.Flush(); err != nil {
		return nil, nil, nil, 0, err
	}
	var table bytes.Buffer
	tbl.Fprint(&table)
	return table.Bytes(), trace.Bytes(), jsonl.InMemory, wall, nil
}

// toMS converts a duration to fractional milliseconds.
func toMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
