package ncc

import (
	"fmt"
	"sort"

	"distlap/internal/congest"
	"distlap/internal/graph"
	"distlap/internal/partwise"
)

// aggRoute records one tournament edge as (part, member positions), so
// applying a level's combinations is pure array indexing.
type aggRoute struct {
	part     int
	from, to int
}

// Aggregate solves a p-congested part-wise aggregation instance in the NCC
// model (Lemma 26): each part runs a binary aggregation tournament over its
// members (sorted by node ID), all parts batched level by level, then a
// symmetric broadcast tournament distributes the result back. Every level
// loads each node with at most p messages, so with per-node capacity
// Θ(log n) the total cost is O((p/log n + 1)·log n) = O(p + log n) rounds —
// which the engine measures rather than assumes.
//
// Parts need not be connected in any graph: NCC is a clique with capacity
// limits, so the Definition 13 connectivity requirement is irrelevant here.
//
// The working state (sorted member views, positional accumulators, per-level
// message batches) lives in the network's pooled scratch; an already-sorted
// part (the common whole-graph identity part of hybrid global sums) is
// aliased rather than copied and re-sorted, so steady-state aggregation over
// stable parts allocates only the returned result slice.
func (nw *Network) Aggregate(inst *partwise.Instance, spec partwise.AggSpec) ([]congest.Word, error) {
	if nw.n == 0 {
		return nil, ErrNoNodes
	}
	if len(inst.Values) != len(inst.Parts) {
		return nil, partwise.ErrValuesMismatch
	}
	k := len(inst.Parts)
	total := 0
	for _, p := range inst.Parts {
		total += len(p)
	}
	s := &nw.scr
	if cap(s.members) < k {
		s.members = make([][]graph.NodeID, k)
	}
	if cap(s.acc) < k {
		s.acc = make([][]congest.Word, k)
	}
	members := s.members[:k]
	acc := s.acc[:k]
	s.memArena = grown(s.memArena, total)
	s.accArena = grown(s.accArena, total)
	s.valWord = grown(s.valWord, nw.n)
	s.valStamp = grown(s.valStamp, nw.n)
	memPos, accPos := 0, 0
	maxSize := 0
	for i, p := range inst.Parts {
		if len(inst.Values[i]) != len(p) {
			return nil, partwise.ErrValuesMismatch
		}
		// Scatter this part's values into the epoch-stamped node→value
		// table, catching out-of-range and duplicate members in input order.
		s.valEpoch++
		if s.valEpoch == 0 {
			for j := range s.valStamp {
				s.valStamp[j] = 0
			}
			s.valEpoch = 1
		}
		for j, v := range p {
			if v < 0 || v >= nw.n {
				return nil, fmt.Errorf("ncc: %w: %d", graph.ErrNodeRange, v)
			}
			if s.valStamp[v] == s.valEpoch {
				return nil, fmt.Errorf("ncc: part %d repeats node %d", i, v)
			}
			s.valStamp[v] = s.valEpoch
			s.valWord[v] = inst.Values[i][j]
		}
		if sort.IntsAreSorted(p) {
			members[i] = p
		} else {
			ms := s.memArena[memPos : memPos+len(p)]
			memPos += len(p)
			copy(ms, p)
			sort.Ints(ms)
			members[i] = ms
		}
		a := s.accArena[accPos : accPos+len(p)]
		accPos += len(p)
		for j, v := range members[i] {
			a[j] = s.valWord[v]
		}
		acc[i] = a
		if len(p) > maxSize {
			maxSize = len(p)
		}
	}

	// Upward tournament: at level l, the member at position j (j odd
	// multiple of 2^l... precisely j ≡ 2^l (mod 2^{l+1})) sends its
	// accumulator to position j − 2^l.
	nw.trace.Begin("ncc-up")
	for stride := 1; stride < maxSize; stride *= 2 {
		msgs := s.msgs[:0]
		routes := s.routes[:0]
		for i := range members {
			for j := stride; j < len(members[i]); j += 2 * stride {
				msgs = append(msgs, Message{
					From: members[i][j], To: members[i][j-stride], Payload: acc[i][j],
				})
				routes = append(routes, aggRoute{part: i, from: j, to: j - stride})
			}
		}
		s.msgs, s.routes = msgs, routes
		if len(msgs) == 0 {
			continue
		}
		if _, err := nw.Deliver(msgs, func(m Message) {}); err != nil {
			nw.trace.End("ncc-up")
			return nil, err
		}
		// Apply combinations (payloads were captured at send time,
		// matching a real synchronous execution).
		for _, r := range routes {
			acc[r.part][r.to] = spec.Fn(acc[r.part][r.to], acc[r.part][r.from])
		}
	}
	nw.trace.End("ncc-up")
	out := make([]congest.Word, k)
	for i := range members {
		out[i] = acc[i][0]
	}

	// Downward tournament: position 0 holds the aggregate; reverse the
	// strides so every member learns it.
	top := 1
	for top < maxSize {
		top *= 2
	}
	nw.trace.Begin("ncc-down")
	for stride := top / 2; stride >= 1; stride /= 2 {
		msgs := s.msgs[:0]
		for i := range members {
			for j := stride; j < len(members[i]); j += 2 * stride {
				msgs = append(msgs, Message{
					From:    members[i][j-stride],
					To:      members[i][j],
					Payload: out[i],
				})
			}
		}
		s.msgs = msgs
		if len(msgs) == 0 {
			continue
		}
		if _, err := nw.Deliver(msgs, func(Message) {}); err != nil {
			nw.trace.End("ncc-down")
			return nil, err
		}
	}
	nw.trace.End("ncc-down")
	return out, nil
}
