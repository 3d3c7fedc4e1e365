//go:build !race

// Allocation-regression guard for a prepared-instance MST request. The race
// runtime changes allocation behaviour, so this runs only in the plain test
// pass (`make alloc-check`); the race pass covers the same code for
// correctness.
package distlap_test

import (
	"context"
	"testing"
)

// TestInstanceMSTAllocs bounds the allocations of one MST request on a
// prepared grid-400 and expander-512, the graphs BenchmarkInstanceMST
// times. The Borůvka phases share one shortcut skeleton per request, and
// the Steiner builder, the certificates and the part-wise solve keep their
// per-part state in reused arrays, not maps. The request measured 2,253
// and 6,949 allocations; the budgets sit just above, so a new per-part or
// per-phase allocation fails here and belongs in those arrays.
func TestInstanceMSTAllocs(t *testing.T) {
	for _, c := range []struct {
		family       string
		size, budget int
	}{{"grid", 400, 2300}, {"expander", 512, 7100}} {
		inst := preparedFamily(t, c.family, c.size)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := inst.MST(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s-%d: %.0f allocations per MST request (budget %d)", c.family, c.size, allocs, c.budget)
		if allocs > float64(c.budget) {
			t.Fatalf("%s-%d: an MST request allocates %.0f, budget %d", c.family, c.size, allocs, c.budget)
		}
	}
}
