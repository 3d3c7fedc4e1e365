package congest

import (
	"fmt"

	"distlap/internal/graph"
)

// Packet is one token to route along an explicit edge path starting at
// Start. Each hop consumes one unit of the traversed edge's per-round
// bandwidth in the traversal direction.
type Packet struct {
	Start   graph.NodeID
	Edges   []graph.EdgeID
	Payload Word
}

// RouteMany routes all packets simultaneously with store-and-forward
// queueing (one packet per directed edge per round, FIFO with random initial
// delays) and returns the per-packet arrival rounds, measured relative to
// the start of the call. This is the multiple-unicast executor used to
// certify shortcut quality (paper §3.1.3, "Multiple-Unicast Problem"): the
// measured makespan is a valid completion time for the instance.
func (nw *Network) RouteMany(pkts []Packet) ([]int, error) {
	// Validate the paths and list each hop's directed edge, packet after
	// packet.
	total := 0
	for _, p := range pkts {
		total += len(p.Edges)
	}
	hops := make([]int32, 0, total)
	for i, p := range pkts {
		v := p.Start
		for _, id := range p.Edges {
			e := nw.g.Edge(id)
			if e.U != v && e.V != v {
				return nil, fmt.Errorf("congest: packet %d: edge %d not incident to %d", i, id, v)
			}
			hops = append(hops, int32(dirEdge(nw.g, id, v)))
			v = nw.g.Other(id, v)
		}
	}
	// Each hop becomes its link; sorting them also gives the congestion
	// (the most packets over one directed edge) for the random-delay draw.
	lists := make([]int32, 2*total)
	uses, buf := lists[:total], lists[total:]
	for h := range uses {
		uses[h] = int32(h)
	}
	edges, c := linkUses(hops, uses, buf)
	delays := nw.randomDelays(len(pkts), c)

	type pkState struct {
		next, end int // indices into hops: the packet's next hop and one past its last
		last      int // round of the latest arrival
	}
	states := make([]pkState, len(pkts))
	arrival := make([]int, len(pkts))
	sched := newTreeSched(nw, edges)
	remaining := 0
	h := 0
	for i, p := range pkts {
		states[i] = pkState{next: h, end: h + len(p.Edges)}
		h += len(p.Edges)
		if len(p.Edges) == 0 {
			continue
		}
		remaining++
		sched.push(int(hops[states[i].next]), int32(i), p.Payload, 1+delays[i])
	}
	deliver := func(id int32, w Word) {
		st := &states[id]
		if st.last == sched.round {
			// A packet crosses at most one edge per round, so this is the
			// duplicate a fault plan delivered twice; the receiver drops it.
			return
		}
		st.last = sched.round
		st.next++
		if st.next == st.end {
			arrival[id] = sched.round
			remaining--
			return
		}
		sched.push(int(hops[st.next]), id, w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	if remaining != 0 {
		return nil, fmt.Errorf("congest: %d packets undelivered", remaining)
	}
	return arrival, nil
}
