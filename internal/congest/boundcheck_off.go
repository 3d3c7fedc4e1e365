//go:build !boundcheck

package congest

// checkSweep is a no-op outside the boundcheck build (see boundcheck.go),
// so the default engine charges, allocates and traces exactly as before.
func (nw *Network) checkSweep(string, *TreeSet, []int, int) {}
