package simprof

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchSchema is the current BENCH_<label>.json schema version; it is
// bumped on any incompatible layout change.
const BenchSchema = 1

// BenchFile is the top-level BENCH_<label>.json document written by
// cmd/bench. Field order here is the emission order (encoding/json follows
// struct order), so the file layout is stable.
//
// Metric split (the regression-gating contract): rounds, messages,
// max_edge_load, and rows are deterministic simulator measurements —
// identical for a given code version and mode on any host — and are what
// CompareBench gates on. All *_wall_ms fields and speedup are wall-clock
// observations that vary by machine and load; they are reported for trend
// reading but never gated.
type BenchFile struct {
	Schema           int        `json:"schema"`
	Label            string     `json:"label"`
	Mode             string     `json:"mode"` // "quick" or "full"
	Parallel         int        `json:"parallel"`
	GOMAXPROCS       int        `json:"gomaxprocs"`
	TotalWallMS      float64    `json:"total_wall_ms"`
	SequentialWallMS float64    `json:"sequential_wall_ms,omitempty"` // -verify only
	Speedup          float64    `json:"speedup,omitempty"`            // -verify only
	Experiments      []BenchExp `json:"experiments"`
}

// BenchExp is one experiment's record.
type BenchExp struct {
	ID          string  `json:"id"`
	WallMS      float64 `json:"wall_ms"`
	Rounds      int     `json:"rounds"`
	Messages    int64   `json:"messages"`
	MaxEdgeLoad int64   `json:"max_edge_load"`
	Rows        int     `json:"rows"`
}

// LoadBench reads and decodes one BENCH_<label>.json file.
func LoadBench(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Regression is one gated metric of one experiment that differs from the
// baseline. Metric "missing" marks an experiment present in the baseline
// but absent from the new run (a coverage loss).
type Regression struct {
	ID     string
	Metric string // "rounds", "messages", "max_edge_load", or "missing"
	Old    int64
	New    int64
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline but missing from this run", r.ID)
	}
	return fmt.Sprintf("%s: %s changed %d -> %d", r.ID, r.Metric, r.Old, r.New)
}

// CompareBench gates cur against the baseline old: it returns one
// Regression per (experiment, deterministic metric) where cur differs from
// the baseline at all, up or down. The metrics are model costs, identical
// for a given code version on any host, so a move in either direction is a
// change to the model that must come with a new baseline, and an
// improvement is no exception. New experiments absent from the baseline
// pass; wall-time fields are never compared. The two files must share a
// schema and a mode — quick and full sweeps measure different instances and
// are not comparable.
func CompareBench(old, cur *BenchFile) ([]Regression, error) {
	if old.Schema != cur.Schema {
		return nil, fmt.Errorf("simprof: schema mismatch: baseline %d vs current %d", old.Schema, cur.Schema)
	}
	if old.Mode != cur.Mode {
		return nil, fmt.Errorf("simprof: mode mismatch: baseline %q vs current %q (quick and full sweeps are not comparable)", old.Mode, cur.Mode)
	}
	curByID := make(map[string]BenchExp, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curByID[e.ID] = e
	}
	var out []Regression
	for _, ob := range old.Experiments {
		nb, ok := curByID[ob.ID]
		if !ok {
			out = append(out, Regression{ID: ob.ID, Metric: "missing"})
			continue
		}
		if ob.Rounds != nb.Rounds {
			out = append(out, Regression{ID: ob.ID, Metric: "rounds", Old: int64(ob.Rounds), New: int64(nb.Rounds)})
		}
		if ob.Messages != nb.Messages {
			out = append(out, Regression{ID: ob.ID, Metric: "messages", Old: ob.Messages, New: nb.Messages})
		}
		if ob.MaxEdgeLoad != nb.MaxEdgeLoad {
			out = append(out, Regression{ID: ob.ID, Metric: "max_edge_load", Old: ob.MaxEdgeLoad, New: nb.MaxEdgeLoad})
		}
	}
	return out, nil
}
