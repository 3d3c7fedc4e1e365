// Package shortcut implements low-congestion shortcuts (paper Definition 5):
// given a graph G partitioned into connected parts P_1, ..., P_k, a shortcut
// assigns to each part an edge set H_i such that (i) the hop-diameter of
// G[P_i] ∪ H_i is at most the dilation d, and (ii) every edge appears in at
// most c of the H_i. The quality Q = c + d controls the cost of part-wise
// aggregation (Proposition 6).
//
// Shortcut quality SQ(G) (Definition 7) — the best quality achievable on the
// worst-case partition — is bracketed empirically: the quality achieved by
// the builder portfolio on a partition is an upper bound witness, and
// max(D-ish path bounds) a lower bound. Exact SQ is not computable at scale;
// the paper's theorems are about scaling, which the brackets expose (see
// DESIGN.md §1).
//
// Determinism obligations: builders are deterministic given (graph,
// partition) — map-keyed folds sort their keys first (the region.go
// pattern the maporder analyzer points to) — and every returned shortcut
// carries a congestion/dilation certificate this package has verified, so
// reported qualities are measurements, never estimates.
package shortcut

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"distlap/internal/graph"
)

// Shortcut is a certified shortcut for a specific partition: per-part extra
// edge sets plus the measured congestion and dilation (recomputed by
// Verify).
type Shortcut struct {
	Parts      [][]graph.NodeID
	Extra      [][]graph.EdgeID // H_i per part (may be nil)
	Congestion int              // max number of H_i containing any edge
	Dilation   int              // max hop-diameter of G[P_i] ∪ H_i
	Builder    string           // name of the builder that produced it
}

// Quality returns c + d (Definition 5).
func (s *Shortcut) Quality() int { return s.Congestion + s.Dilation }

// Errors returned by validation.
var (
	ErrEmptyPart        = errors.New("shortcut: empty part")
	ErrPartDisconnected = errors.New("shortcut: part not induced-connected")
	ErrPartsMismatch    = errors.New("shortcut: extra edge sets do not match parts")
)

// ValidateParts checks that every part is nonempty, within range and
// induced-connected in g (the precondition of Definitions 4/5).
func ValidateParts(g *graph.Graph, parts [][]graph.NodeID) error {
	var sub graph.Induced
	return validateParts(&sub, g, parts)
}

// validateParts is ValidateParts with a caller-owned kernel, so one kernel
// serves every part.
func validateParts(sub *graph.Induced, g *graph.Graph, parts [][]graph.NodeID) error {
	for i, p := range parts {
		if len(p) == 0 {
			return fmt.Errorf("part %d: %w", i, ErrEmptyPart)
		}
		for _, v := range p {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("part %d: %w: node %d", i, graph.ErrNodeRange, v)
			}
		}
		if !sub.Connected(g, p) {
			return fmt.Errorf("part %d: %w", i, ErrPartDisconnected)
		}
	}
	return nil
}

// Congestion returns the maximum number of parts any single node belongs to
// (the parameter p of the congested part-wise aggregation problem,
// Definition 13). Returns 0 for no parts.
func Congestion(parts [][]graph.NodeID) int {
	cnt := make(map[graph.NodeID]int)
	max := 0
	for _, p := range parts {
		for _, v := range p {
			cnt[v]++
			if cnt[v] > max {
				max = cnt[v]
			}
		}
	}
	return max
}

// Verify recomputes the shortcut's congestion and dilation certificates from
// scratch and stores them; it errors if the parts are invalid or any
// augmented part subgraph is disconnected.
func Verify(g *graph.Graph, s *Shortcut) error {
	if len(s.Extra) != len(s.Parts) {
		return ErrPartsMismatch
	}
	var sub graph.Induced
	if err := validateParts(&sub, g, s.Parts); err != nil {
		return err
	}
	use := make(map[graph.EdgeID]int)
	cong := 0
	dil := 0
	for i, p := range s.Parts {
		for _, id := range s.Extra[i] {
			if id < 0 || id >= g.M() {
				return fmt.Errorf("part %d: extra edge %d out of range", i, id)
			}
			use[id]++
			if use[id] > cong {
				cong = use[id]
			}
		}
		d, err := augmentedDiameter(&sub, g, p, s.Extra[i])
		if err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		if d > dil {
			dil = d
		}
	}
	s.Congestion = cong
	s.Dilation = dil
	return nil
}

// augmentedDiameter returns the dilation certificate of one part: the
// hop-diameter of G[P ∪ V(H)], the subgraph induced on the part plus the
// endpoints of its extra edges (it contains every edge of G[P] ∪ H). The
// subgraph is laid out once in sub and every sweep runs on that layout.
func augmentedDiameter(sub *graph.Induced, g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID) (int, error) {
	nodes := make([]graph.NodeID, 0, len(part)+2*len(extra))
	nodes = append(nodes, part...)
	for _, id := range extra {
		e := g.Edge(id)
		nodes = append(nodes, e.U, e.V)
	}
	// Sorted once: deterministic BFS input and sweep order.
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	k := sub.Build(g, nodes)
	// The dilation certificate must be an upper bound. For small augmented
	// parts compute the exact diameter (all-pairs BFS); for large ones use
	// the 2-approximation upper bound 2·ecc(x), refined by a double sweep
	// so the reported value is max(ecc(far), min over the two sweeps of
	// 2·ecc) — still a valid upper bound, at most 2× the truth.
	sweep := func(root int) (int, int, error) {
		reached, ecc, far := sub.Sweep(root)
		if reached != k {
			return 0, 0, fmt.Errorf("augmented part disconnected: %w", ErrPartDisconnected)
		}
		return ecc, far, nil
	}
	const exactCutoff = 192
	if k <= exactCutoff {
		diam := 0
		for v := 0; v < k; v++ {
			ecc, _, err := sweep(v)
			if err != nil {
				return 0, err
			}
			if ecc > diam {
				diam = ecc
			}
		}
		return diam, nil
	}
	ecc1, far, err := sweep(sort.SearchInts(nodes, part[0]))
	if err != nil {
		return 0, err
	}
	ecc2, _, err := sweep(far)
	if err != nil {
		return 0, err
	}
	upper := 2 * ecc1
	if 2*ecc2 < upper {
		upper = 2 * ecc2
	}
	if ecc2 > upper {
		upper = ecc2
	}
	return upper, nil
}

// Builder constructs a shortcut for a partition of g.
type Builder interface {
	// Build returns a verified shortcut for the given parts.
	Build(g *graph.Graph, parts [][]graph.NodeID) (*Shortcut, error)
	// Name identifies the builder in experiment tables.
	Name() string
}
