// Command distbench is distlap's end-to-end benchmark: five seeded
// workloads driven through the public entry points of every layer — the
// distlapd service over a loopback listener, prepared distlap Instances,
// the core CONGEST and hybrid kernels, linalg, and the paper's experiment
// suite — with every output checked against a reference the solver does
// not compute.
//
// Usage, from the repository root (benchmark/run.sh builds and runs it):
//
//	distbench --workload <name> --seed <n> --seconds <s> --trace 0|1
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1), made separately, prints the per-layer metrics and writes the
// spans it recorded to .bench_build/spans-<workload>-<seed>.jsonl. Each
// metric is printed on its own line with its unit; the last line of
// standard output is the result object. The exit code is 0 only when every
// check passed. benchmark/README.md describes the workloads and every
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"distlap"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"serve-mix", "solve-grid", "solve-expander", "faulty-hybrid", "paper-suite"}

// contentSeed seeds what every operation of a workload is: right-hand
// sides, request seeds, flow terminals, repeats, churn graphs and the fault
// plan. The run's --seed draws the order the operations are sent in. A
// fixed set of operations charges the same rounds and words on every run,
// whatever the seed, so rounds_per_op and messages_per_op can be held
// exactly.
const contentSeed = 1

// newWorkload generates the named workload's inputs from seed. ops
// overrides the length of the operation list and makes set-up a single
// repetition (0 keeps the defaults); the tests use it for smoke-sized runs.
// root is the repository root.
//
// The set-up repetition counts make set-up take about a second on the
// reference machine: a single set-up takes 0.1–4 ms, too short to time
// alone on a machine whose speed varies from one second to the next.
func newWorkload(name string, seed int64, ops int, root string) (workload, error) {
	size := func(def, reps int) (int, int) {
		if ops > 0 {
			return ops, 1
		}
		return def, reps
	}
	switch name {
	case "serve-mix":
		n, reps := size(2400, 250)
		return newServeMix(n, reps, seed)
	case "solve-grid":
		n, reps := size(16, 1000)
		return newSolveLoad(graphSpec{"grid", 400}, distlap.ModeUniversal, nil, n, reps, seed)
	case "solve-expander":
		n, reps := size(16, 600)
		return newSolveLoad(graphSpec{"expander", 512}, distlap.ModeUniversal, nil, n, reps, seed)
	case "faulty-hybrid":
		spec := benchFaults(contentSeed)
		n, reps := size(16, 2000)
		return newSolveLoad(graphSpec{"grid", 256}, distlap.ModeHybrid, &spec, n, reps, seed)
	case "paper-suite":
		_, reps := size(0, 10000)
		return newPaperSuite(root, ops, reps, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-mix, solve-grid, solve-expander, faulty-hybrid or paper-suite")
	seed := fs.Int64("seed", 1, "seed every input of the workload is generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds (whole passes over the operation list)")
	trace := fs.Int("trace", 0, "1 makes a traced run: per-layer metrics and a spans file instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "distbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "distbench: --seconds must be at least 1")
		return 2
	}
	if _, err := os.Stat(referenceFile); err != nil {
		fmt.Fprintf(os.Stderr, "distbench: run from the repository root: %v\n", err)
		return 2
	}
	wl, err := newWorkload(*name, *seed, 0, ".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "distbench:", err)
		return 2
	}
	ctx := context.Background()
	var res result
	if *trace == 1 {
		res, err = traced(ctx, wl, filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed)))
	} else {
		res, err = measured(ctx, wl, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "distbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-45s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
