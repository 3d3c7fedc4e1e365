// Package testonly is a distlint fixture: an exported identifier that only
// a _test.go file references is flagged; one another non-test file calls,
// methods that satisfy an interface and an allowed export are not.
package testonly

import "fmt"

// OnlyTested is called from a_test.go alone: flagged.
func OnlyTested() int { return 1 }

// UsedByB is called from b.go: not flagged.
func UsedByB() int { return 2 }

// Queue is an int heap; b.go drives it through container/heap, which calls
// the heap.Interface methods below through the interface.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }

func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// String satisfies fmt.Stringer: not flagged.
func (q Queue) String() string { return fmt.Sprint([]int(q)) }

// Oracle is a reference the tests compare against: suppressed.
//
//distlint:allow testonly fixture: a reference the tests compare against
func Oracle() int { return 3 }

// Recursive names only itself: flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Orphan is named only by its own method's receiver: flagged, as is the
// method, which satisfies no interface.
type Orphan struct{}

// Describe is flagged.
func (Orphan) Describe() string { return "orphan" }

// Asserted is named only by the interface assertion below, which compiles
// into nothing: flagged. Its String method satisfies fmt.Stringer: not
// flagged.
type Asserted struct{}

func (Asserted) String() string { return "asserted" }

var _ fmt.Stringer = Asserted{}

// Kicker's Kick is called only through the anonymous interface b.go
// asserts to: neither is flagged.
type Kicker struct{}

func (Kicker) Kick() int { return 4 }
