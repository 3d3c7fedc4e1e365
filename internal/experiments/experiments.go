// Package experiments regenerates the paper-claim tables E1–E14 indexed in
// DESIGN.md §3: each experiment turns a figure, lemma or theorem of the
// paper into a measured series on the simulator. cmd/experiments prints the
// tables; the root bench_test.go wraps each one in a testing.B benchmark;
// cmd/bench records the suite's perf trajectory; EXPERIMENTS.md records
// expected-vs-measured shapes.
//
// Determinism obligations: every experiment is a list of independent sweep
// points, each owning its graph, network, derived seeds and trace
// collector (see parallel.go and DESIGN.md §7). Points may execute on a
// bounded worker pool (Config.Parallel), but tables and trace streams are
// assembled in canonical sweep order, so output is byte-identical at every
// pool width. Wall-clock timing is permitted in this package only for
// reporting (never for decisions that affect results).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"distlap/internal/simtrace"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table as aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config configures an experiment run.
type Config struct {
	// Quick shrinks the sweep for benchmarks and smoke tests.
	Quick bool
	// Trace receives the instrumentation of every network and solve the
	// experiment performs (nil = Nop). RunWith additionally wraps the whole
	// experiment in a span named after its ID, so per-experiment phase
	// breakdowns come out of one multi-experiment trace. Sweep points trace
	// into private recorders that are replayed into Trace in canonical
	// order, so the stream is independent of Parallel.
	Trace simtrace.Collector
	// Parallel bounds the worker pool the sweep points of each experiment
	// fan out across (0 = GOMAXPROCS). Any value produces byte-identical
	// tables and traces; it only changes wall time.
	Parallel int
}

// Runner executes one experiment.
type Runner func(cfg Config) (*Table, error)

// Registry maps experiment IDs to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1,
		"E2":  E2,
		"E3":  E3,
		"E4":  E4,
		"E5":  E5,
		"E6":  E6,
		"E7":  E7,
		"E8":  E8,
		"E9a": E9a,
		"E9b": E9b,
		"E10": E10,
		"E11": E11,
		"E12": E12,
		"E13": E13,
		"E14": E14,
	}
}

// IDs returns the experiment IDs in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		// E1 < E2 < ... < E9a < E9b < E10 < E11.
		ka, kb := sortKey(ids[a]), sortKey(ids[b])
		if ka != kb {
			return ka < kb
		}
		return ids[a] < ids[b]
	})
	return ids
}

func sortKey(id string) int {
	n := 0
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// RunWith executes the experiment with the given ID under a config,
// wrapping it in a trace span named after the ID. Both tiers resolve here:
// the E-series paper tables and the chaos tier C1–C2 (chaos.go).
func RunWith(id string, cfg Config) (*Table, error) {
	r, ok := lookupRunner(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			id, knownIDs())
	}
	tr := simtrace.OrNop(cfg.Trace)
	tr.Begin(id)
	defer tr.End(id)
	return r(cfg)
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func ftoa(f float64) string { return fmt.Sprintf("%.2f", f) }
