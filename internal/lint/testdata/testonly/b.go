package testonly

import "container/heap"

func use() int {
	q := &Queue{3, 1}
	heap.Push(q, 2)
	return UsedByB() + heap.Pop(q).(int) + kick(Kicker{})
}

// kick calls Kick through an anonymous interface alone.
func kick(x any) int { return x.(interface{ Kick() int }).Kick() }
