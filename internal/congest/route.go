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

// Dest returns the packet's final node.
func (p Packet) Dest(g *graph.Graph) graph.NodeID {
	v := p.Start
	for _, id := range p.Edges {
		v = g.Other(id, v)
	}
	return v
}

// RouteMany routes all packets simultaneously with store-and-forward
// queueing (one packet per directed edge per round, FIFO with random initial
// delays) and returns the per-packet arrival rounds, measured relative to
// the start of the call. This is the multiple-unicast executor used to
// certify shortcut quality (paper §3.1.3, "Multiple-Unicast Problem"): the
// measured makespan is a valid completion time for the instance.
func (nw *Network) RouteMany(pkts []Packet) ([]int, error) {
	// Validate paths and compute congestion (max packets over a directed
	// edge) for the random-delay draw.
	use := make(map[int]int)
	c := 1
	for i, p := range pkts {
		v := p.Start
		for _, id := range p.Edges {
			e := nw.g.Edge(id)
			if e.U != v && e.V != v {
				return nil, fmt.Errorf("congest: packet %d: edge %d not incident to %d", i, id, v)
			}
			de := dirEdge(nw.g, id, v)
			use[de]++
			if use[de] > c {
				c = use[de]
			}
			v = nw.g.Other(id, v)
		}
	}
	delays := nw.randomDelays(len(pkts), c)

	type pkState struct {
		at   graph.NodeID
		next int // index into Edges
		last int // round of the latest arrival
	}
	states := make([]pkState, len(pkts))
	arrival := make([]int, len(pkts))
	sched := newTreeSched(nw)
	remaining := 0
	for i, p := range pkts {
		states[i] = pkState{at: p.Start}
		if len(p.Edges) == 0 {
			arrival[i] = 0
			continue
		}
		remaining++
		sched.push(dirEdge(nw.g, p.Edges[0], p.Start), int32(i), p.Payload, 1+delays[i])
	}
	deliver := func(id int32, w Word) {
		i := int(id)
		st := &states[i]
		if st.last == sched.round {
			// A packet crosses at most one edge per round, so this is the
			// duplicate a fault plan delivered twice; the receiver drops it.
			return
		}
		st.last = sched.round
		st.at = nw.g.Other(pkts[i].Edges[st.next], st.at)
		st.next++
		if st.next == len(pkts[i].Edges) {
			arrival[i] = sched.round
			remaining--
			return
		}
		sched.push(dirEdge(nw.g, pkts[i].Edges[st.next], st.at), id, w, sched.round+1)
	}
	for sched.step(deliver) {
	}
	if remaining != 0 {
		return nil, fmt.Errorf("congest: %d packets undelivered", remaining)
	}
	return arrival, nil
}
