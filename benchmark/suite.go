package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"distlap"
	"distlap/internal/experiments"
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// referenceFile is the committed output of the full experiment suite,
// relative to the repository root.
const referenceFile = "experiments_output.txt"

// paperSuite runs the paper's experiment tables E1–E14 through
// experiments.RunWith, full sweeps, one sweep point at a time. One
// operation is one experiment's table; a pass over the list is the
// research user's end-to-end run, in an experiment order drawn from the
// seed.
type paperSuite struct {
	refPath string
	order   []string
	reps    int
}

// newPaperSuite builds the suite workload; ops > 0 keeps only the first ops
// experiments of the pass (the tests' smoke size).
func newPaperSuite(root string, ops, reps int, seed int64) *paperSuite {
	ids := experiments.IDs()
	rng := rand.New(rand.NewSource(seedderive.Derive(seed, "bench/paper-suite", 0)))
	rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
	if ops > 0 && ops < len(ids) {
		ids = ids[:ops]
	}
	return &paperSuite{refPath: filepath.Join(root, referenceFile), order: ids, reps: reps}
}

func (w *paperSuite) size() int      { return len(w.order) }
func (w *paperSuite) clients() int   { return 1 }
func (w *paperSuite) setupReps() int { return w.reps }

// probe measures a mid-sized grid, the suite's most common topology.
func (w *paperSuite) probe() probeSpec {
	return probeSpec{graph: graphSpec{"grid", 144}, mode: distlap.ModeUniversal, faults: benchFaults(contentSeed), seed: contentSeed}
}

// open loads the reference tables. The suite itself has no set-up; this is
// the benchmark's own, timed only because every workload reports setup_s.
func (w *paperSuite) open(context.Context) (session, error) {
	refs, err := readReference(w.refPath)
	if err != nil {
		return nil, err
	}
	return &suiteSession{w: w, refs: refs, runs: map[string]int64{}}, nil
}

// readReference splits the reference output into one table per experiment
// ID and requires the tables to cover the file exactly, so that matching
// every table of a pass means the pass reproduced the file byte for byte.
func readReference(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	refs := map[string]string{}
	var cur strings.Builder
	id := ""
	flush := func() {
		if id != "" {
			refs[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if strings.HasPrefix(line, "== ") {
			flush()
			id = strings.Fields(line)[1]
		}
		cur.WriteString(line)
	}
	flush()
	var all strings.Builder
	for _, id := range experiments.IDs() {
		t, ok := refs[id]
		if !ok {
			return nil, fmt.Errorf("%s has no table for %s", path, id)
		}
		all.WriteString(t)
	}
	if all.String() != string(raw) {
		return nil, fmt.Errorf("%s is not the concatenation of the E1–E14 tables", path)
	}
	return refs, nil
}

// suiteSession runs the experiments on one client.
type suiteSession struct {
	w    *paperSuite
	refs map[string]string
	runs map[string]int64 // checked runs of each experiment so far
	// price is the rounds and words each experiment charges, counted by
	// cost's untimed pass; nil until cost first runs.
	price map[string][2]int64
}

func (s *suiteSession) rootName(i int) string { return "experiments." + s.w.order[i] }

// do runs experiment i with no collector and checks its table.
func (s *suiteSession) do(_ context.Context, i int, _ *opTrace) (time.Duration, error) {
	id := s.w.order[i]
	lat, err := s.run(id, experiments.Config{Parallel: 1})
	if err == nil {
		s.runs[id]++
	}
	return lat, err
}

// run runs one experiment and requires its table to equal the reference.
// lat covers RunWith alone.
func (s *suiteSession) run(id string, cfg experiments.Config) (lat time.Duration, err error) {
	t0 := time.Now()
	tbl, err := experiments.RunWith(id, cfg)
	lat = time.Since(t0)
	if err != nil {
		return lat, fmt.Errorf("%s: %w", id, err)
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	if buf.String() != s.refs[id] {
		return lat, fmt.Errorf("%s table differs from %s", id, referenceFile)
	}
	return lat, nil
}

// cost returns the rounds and words charged by the experiments run so far.
// Every experiment's cost is fixed, so the first call prices each one in
// an extra pass with a counting collector. That pass is never timed; the
// timed runs carry no collector, since one switches the engines off their
// quiet fast path.
func (s *suiteSession) cost() (rounds, words int64, err error) {
	if s.price == nil {
		price := map[string][2]int64{}
		for _, id := range s.w.order {
			c := &countingCollector{}
			if _, err := s.run(id, experiments.Config{Parallel: 1, Trace: c}); err != nil {
				return 0, 0, err
			}
			price[id] = [2]int64{c.rounds, c.words}
		}
		s.price = price
	}
	for id, n := range s.runs {
		rounds += n * s.price[id][0]
		words += n * s.price[id][1]
	}
	return rounds, words, nil
}

func (s *suiteSession) close() error { return nil }

// countingCollector sums the rounds and words every engine charges.
type countingCollector struct {
	simtrace.Nop
	rounds, words int64
}

func (c *countingCollector) Rounds(_ string, n int)            { c.rounds += int64(n) }
func (c *countingCollector) Messages(_ string, _ int, n int64) { c.words += n }
