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
// partition) — per-part state lives in arrays indexed by tree member, and
// edges are emitted in host node order — and every returned shortcut
// carries a congestion/dilation certificate this package has verified, so
// reported qualities are measurements, never estimates.
package shortcut

import (
	"errors"
	"fmt"
	"math"
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
// augmented part subgraph is disconnected. The builders certify what they
// build through the same routine on their skeleton's scratch, after
// validating the parts once.
//
//distlint:allow testonly the from-scratch certificate check the builder tests and BenchmarkVerify hold every builder to
func Verify(g *graph.Graph, s *Shortcut) error {
	if len(s.Extra) != len(s.Parts) {
		return ErrPartsMismatch
	}
	var c certifier
	if err := validateParts(&c.sub, g, s.Parts); err != nil {
		return err
	}
	return c.certify(g, s)
}

// certifier is the scratch that certifying shortcuts reuses across parts
// and calls: the induced-subgraph kernel, the augmented node list, a lower
// and an upper eccentricity bound per augmented node, the nodes still in
// play, and every part's extra edges. All of it is sized by the parts, none
// by the host graph. It is not safe for concurrent use.
type certifier struct {
	sub    graph.Induced
	nodes  []graph.NodeID
	lo, hi []int32
	live   []int32
	extra  []graph.EdgeID
}

// certify computes s's congestion and dilation certificates and stores
// them. The parts must already have passed validateParts. The congestion
// is the longest run of equal edges in a sorted copy of the parts' extra
// edges, the rule congest.NewTreeSet counts its c by.
func (c *certifier) certify(g *graph.Graph, s *Shortcut) error {
	all := c.extra[:0]
	dil := 0
	for i, p := range s.Parts {
		for _, id := range s.Extra[i] {
			if id < 0 || id >= g.M() {
				return fmt.Errorf("part %d: extra edge %d out of range", i, id)
			}
		}
		all = append(all, s.Extra[i]...)
		d, err := c.augmentedDiameter(g, p, s.Extra[i], dil)
		if err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		dil = d
	}
	c.extra = all
	slices.Sort(all)
	cong := 0
	for i, run := 0, 0; i < len(all); i++ {
		if i > 0 && all[i] == all[i-1] {
			run++
		} else {
			run = 1
		}
		cong = max(cong, run)
	}
	s.Congestion = cong
	s.Dilation = dil
	return nil
}

// exactCutoff is the largest augmented part whose dilation certificate is
// its exact diameter; above it the certificate is a double-sweep bound.
const exactCutoff = 192

// augmentedDiameter returns the larger of floor and the dilation
// certificate of one part: the hop-diameter of G[P ∪ V(H)], the subgraph
// induced on the part plus the endpoints of its extra edges (it contains
// every edge of G[P] ∪ H). Verify passes the largest certificate of the
// parts before as floor, since only the maximum is reported. The subgraph
// is laid out once in c.sub and every sweep runs on that layout.
//
// Up to exactCutoff nodes the certificate is the exact diameter, found by
// eccentricity bounding (Takes and Kosters, CIKM 2011) instead of a sweep
// from every node. A sweep from v with eccentricity e bounds every node w
// by max(d(v,w), e − d(v,w)) ≤ ecc(w) ≤ e + d(v,w). A node whose upper
// bound is at most the best lower bound — the largest eccentricity swept
// so far, or floor — cannot raise the maximum and drops out; the swept
// node itself always does. The sweeps alternate between the live node with
// the largest upper bound and the one with the smallest lower bound
// (lowest local index on ties) and stop when no node is left, so the
// result is exact whatever the order. A cycle, where every eccentricity is
// equal, sweeps every node once.
//
// Above exactCutoff it is the 2-approximation upper bound 2·ecc(x),
// refined by a double sweep so the reported value is max(ecc(far), min
// over the two sweeps of 2·ecc) — still a valid upper bound, at most 2×
// the truth.
func (c *certifier) augmentedDiameter(g *graph.Graph, part []graph.NodeID, extra []graph.EdgeID, floor int) (int, error) {
	nodes := append(c.nodes[:0], part...)
	for _, id := range extra {
		e := g.Edge(id)
		nodes = append(nodes, e.U, e.V)
	}
	if len(nodes) > exactCutoff {
		// The double sweep's start and tie-breaking follow the layout, so
		// a part that may take it is laid out in node order. The exact
		// diameter does not depend on the layout; Build drops repeats.
		slices.Sort(nodes)
		nodes = slices.Compact(nodes)
	}
	c.nodes = nodes
	k := c.sub.Build(g, nodes)
	sweep := func(root int) (int, int, error) {
		reached, ecc, far := c.sub.Sweep(root)
		if reached != k {
			return 0, 0, fmt.Errorf("augmented part disconnected: %w", ErrPartDisconnected)
		}
		return ecc, far, nil
	}
	if k > exactCutoff {
		ecc1, far, err := sweep(sort.SearchInts(nodes, part[0]))
		if err != nil {
			return 0, err
		}
		if 2*ecc1 <= floor {
			return floor, nil // the bound cannot exceed 2·ecc1
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
		return max(floor, upper), nil
	}
	lo, hi, live := fit(c.lo, k), fit(c.hi, k), fit(c.live, k)
	c.lo, c.hi, c.live = lo, hi, live
	for i := range live {
		lo[i], hi[i], live[i] = 0, math.MaxInt32, int32(i)
	}
	best := floor
	for high := true; len(live) > 0; high = !high {
		v := live[0]
		for _, w := range live[1:] {
			if high && hi[w] > hi[v] || !high && lo[w] < lo[v] {
				v = w
			}
		}
		ecc, _, err := sweep(int(v))
		if err != nil {
			return 0, err
		}
		best = max(best, ecc)
		kept := live[:0]
		for _, w := range live {
			d, e := int32(c.sub.Depth(int(w))), int32(ecc)
			lo[w] = max(lo[w], d, e-d)
			hi[w] = min(hi[w], e+d)
			if int(hi[w]) > best {
				kept = append(kept, w)
			}
		}
		live = kept
	}
	return best, nil
}

// fit returns b resized to n elements, reusing its storage when it can.
func fit(b []int32, n int) []int32 { return slices.Grow(b[:0], n)[:n] }
