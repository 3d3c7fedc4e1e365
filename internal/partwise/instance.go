// Package partwise implements the part-wise aggregation problem (paper
// Definition 4) and its p-congested generalization (Definition 13), together
// with three distributed solvers whose costs are measured on the congest
// engine:
//
//   - NaiveGlobalSolver — the existential baseline: every part aggregates
//     over one global BFS tree, Θ(k + D) rounds on k parts;
//   - ShortcutSolver — Proposition 6: 1-congested instances solved over a
//     low-congestion shortcut in O(quality) rounds;
//   - LayeredSolver — the paper's contribution (§3.1): p-congested
//     instances reduced, via heavy-path decomposition of each part
//     (Lemma 15, following [29]) and the Lemma 18 path embedding, to
//     1-congested instances on layered graphs Ĝ_{O(p)}, simulated in G with
//     the Lemma 16 overhead.
//
// Determinism obligations: all three solvers return identical aggregation
// values on identical instances (they differ only in measured cost);
// per-level seeds in the layered solver come from seedderive, and part /
// path processing follows stable instance order — a solve is replayable
// from (graph, instance, seed).
package partwise

import (
	"errors"
	"fmt"
	"math"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/seedderive"
	"distlap/internal/shortcut"
)

// AggSpec is an aggregation function together with its identity element and
// a display name. The identity is required so relay nodes (Steiner nodes,
// non-canonical layered copies, non-members on global trees) can participate
// without perturbing the aggregate.
type AggSpec struct {
	Name     string
	Fn       congest.Agg
	Identity congest.Word
}

// Standard aggregation specs (Definition 4 examples).
var (
	Sum = AggSpec{Name: "sum", Fn: congest.AggSum, Identity: 0}
	Min = AggSpec{Name: "min", Fn: congest.AggMin, Identity: math.MaxInt64}
	Max = AggSpec{Name: "max", Fn: congest.AggMax, Identity: math.MinInt64}
	And = AggSpec{Name: "and", Fn: congest.AggAnd, Identity: 1}
	Or  = AggSpec{Name: "or", Fn: congest.AggOr, Identity: 0}
)

// Instance is a (possibly congested) part-wise aggregation instance: parts
// (each induced-connected in the communication graph) and, aligned with
// each part's node list, the part-specific input values x_i(v).
type Instance struct {
	Parts  [][]graph.NodeID
	Values [][]congest.Word
}

// Errors reported by validation and solvers.
var (
	ErrValuesMismatch = errors.New("partwise: values do not align with parts")
	ErrCongested      = errors.New("partwise: instance has node congestion > 1")
)

// Validate checks structural invariants against the communication graph.
func (inst *Instance) Validate(g *graph.Graph) error {
	if len(inst.Values) != len(inst.Parts) {
		return fmt.Errorf("%w: %d value rows for %d parts",
			ErrValuesMismatch, len(inst.Values), len(inst.Parts))
	}
	for i, p := range inst.Parts {
		if len(inst.Values[i]) != len(p) {
			return fmt.Errorf("%w: part %d has %d nodes, %d values",
				ErrValuesMismatch, i, len(p), len(inst.Values[i]))
		}
	}
	return shortcut.ValidateParts(g, inst.Parts)
}

// Congestion returns the maximum number of parts any node belongs to (the
// parameter p of Definition 13).
func (inst *Instance) Congestion() int { return shortcut.Congestion(inst.Parts) }

// Expected computes the reference aggregates centrally (ground truth for
// tests and experiments).
func (inst *Instance) Expected(spec AggSpec) []congest.Word {
	out := make([]congest.Word, len(inst.Parts))
	for i := range inst.Parts {
		acc := spec.Identity
		for _, w := range inst.Values[i] {
			acc = spec.Fn(acc, w)
		}
		out[i] = acc
	}
	return out
}

// value returns a lookup from (part, node) to input value.
func (inst *Instance) valueLookup() []map[graph.NodeID]congest.Word {
	lut := make([]map[graph.NodeID]congest.Word, len(inst.Parts))
	for i, p := range inst.Parts {
		lut[i] = make(map[graph.NodeID]congest.Word, len(p))
		for j, v := range p {
			lut[i][v] = inst.Values[i][j]
		}
	}
	return lut
}

// Solver is a distributed part-wise aggregation algorithm; after Solve
// returns, every member of part i knows out[i] (the engine's broadcast
// phases enforce this).
type Solver interface {
	Name() string
	Solve(nw *congest.Network, inst *Instance, spec AggSpec) ([]congest.Word, error)
}

// GridCongestedInstance builds the Figure 1 instance on an s×s grid: every
// row and every column is a part, so every node has congestion exactly 2
// and every row part intersects every column part (the Observation 14
// pattern). Values are the node IDs.
//
//distlint:allow testonly the Figure 1 congested instance the partwise and ncc tests share
func GridCongestedInstance(s int) (*graph.Graph, *Instance) {
	g := graph.Grid(s, s)
	inst := &Instance{}
	for r := 0; r < s; r++ {
		var part []graph.NodeID
		var vals []congest.Word
		for c := 0; c < s; c++ {
			v := graph.GridID(s, r, c)
			part = append(part, v)
			vals = append(vals, congest.Word(v))
		}
		inst.Parts = append(inst.Parts, part)
		inst.Values = append(inst.Values, vals)
	}
	for c := 0; c < s; c++ {
		var part []graph.NodeID
		var vals []congest.Word
		for r := 0; r < s; r++ {
			v := graph.GridID(s, r, c)
			part = append(part, v)
			vals = append(vals, congest.Word(v))
		}
		inst.Parts = append(inst.Parts, part)
		inst.Values = append(inst.Values, vals)
	}
	return g, inst
}

// MinOneCongestedCover greedily colors the part-conflict graph (parts
// conflict when they share a node) and returns the number of classes, i.e.
// the number of 1-congested sub-instances a direct decomposition needs.
// Observation 14: on the Figure 1 instance this is Ω(√n) even though p = 2.
func MinOneCongestedCover(parts [][]graph.NodeID) int {
	k := len(parts)
	if k == 0 {
		return 0
	}
	// Build conflict adjacency via node -> parts index.
	byNode := make(map[graph.NodeID][]int)
	for i, p := range parts {
		for _, v := range p {
			byNode[v] = append(byNode[v], i)
		}
	}
	conflict := make([]map[int]bool, k)
	for i := range conflict {
		conflict[i] = make(map[int]bool)
	}
	for _, idxs := range byNode { //distlint:allow maporder idempotent set inserts; the conflict relation is order-independent
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				conflict[idxs[a]][idxs[b]] = true
				conflict[idxs[b]][idxs[a]] = true
			}
		}
	}
	color := make([]int, k)
	classes := 0
	for i := 0; i < k; i++ {
		used := make(map[int]bool)
		for j := range conflict[i] { //distlint:allow maporder builds the used-color set; set membership is order-independent
			if j < i {
				used[color[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[i] = c
		if c+1 > classes {
			classes = c + 1
		}
	}
	return classes
}

// RandomCongestedInstance builds a p-congested instance on g: p independent
// TreePartition-style partitions are overlaid, so every node lies in exactly
// p parts. Values are deterministic functions of (part, node).
func RandomCongestedInstance(g *graph.Graph, p, partsPerLayer int, seed int64) *Instance {
	inst := &Instance{}
	for l := 0; l < p; l++ {
		parts := shortcut.RandomConnectedPartition(g, partsPerLayer, seedderive.Derive(seed, "instance-layer", int64(l)))
		for _, part := range parts {
			vals := make([]congest.Word, len(part))
			for i, v := range part {
				vals[i] = congest.Word(v + l*7)
			}
			inst.Parts = append(inst.Parts, part)
			inst.Values = append(inst.Values, vals)
		}
	}
	return inst
}

// HookCongestedInstance builds the pairwise-intersecting Figure 1 pattern
// on an s×s grid: part i is the "hook" that runs along row i from column 0
// to the diagonal and then down column i to the bottom. Every node on or
// below the diagonal lies in exactly two parts, and every two distinct
// parts share the node (max(i,j), min(i,j)) — so reducing the instance to
// 1-congested sub-instances requires k = s classes even though p = 2
// (Observation 14).
func HookCongestedInstance(s int) (*graph.Graph, *Instance) {
	g := graph.Grid(s, s)
	inst := &Instance{}
	for i := 0; i < s; i++ {
		var part []graph.NodeID
		var vals []congest.Word
		for c := 0; c <= i; c++ {
			v := graph.GridID(s, i, c)
			part = append(part, v)
			vals = append(vals, congest.Word(v))
		}
		for r := i + 1; r < s; r++ {
			v := graph.GridID(s, r, i)
			part = append(part, v)
			vals = append(vals, congest.Word(v))
		}
		inst.Parts = append(inst.Parts, part)
		inst.Values = append(inst.Values, vals)
	}
	return g, inst
}
