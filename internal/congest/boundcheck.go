//go:build boundcheck

package congest

import "fmt"

// checkSweep asserts the round bracket of one reliable tree sweep over s,
// the deterministic form of Proposition 6's congestion-plus-dilation
// price: with the set's congestion c, its height h (walked here, per
// sweep; the compile does not keep it) and the largest drawn delay δ,
// max(h, c) ≤ rounds ≤ δ + c·h. A directed edge carries one word per
// round and the deepest member is h hops out, which gives the lower bound;
// a FIFO send waits behind at most c − 1 others on its edge, so a member j
// hops out is reached by round δ + j·c, which gives the upper one. A set
// with no edges must charge nothing. Sweeps under a fault plan are
// skipped: drops and stalls legitimately stretch them. Built only with
// -tags boundcheck (make bound-check); a violation panics.
func (nw *Network) checkSweep(what string, s *TreeSet, delays []int, rounds int) {
	if nw.faulty() {
		return
	}
	delta := 0
	for _, d := range delays {
		delta = max(delta, d)
	}
	h := s.height()
	lo, hi := max(h, s.c), delta+s.c*h
	if h == 0 {
		lo, hi = 0, 0
	}
	if rounds < lo || rounds > hi {
		panic(fmt.Sprintf("congest: boundcheck: %s over %d trees (c=%d, h=%d, δ=%d) took %d rounds, want [%d, %d]",
			what, s.Len(), s.c, h, delta, rounds, lo, hi))
	}
}
