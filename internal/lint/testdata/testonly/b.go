package testonly

import "container/heap"

func use() int {
	q := &Queue{3, 1}
	heap.Push(q, 2)
	return UsedByB() + heap.Pop(q).(int)
}
