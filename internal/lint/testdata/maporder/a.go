// Package maporder is a distlint fixture: maporder violations alongside the
// blessed collect-then-sort patterns the analyzer must accept.
package maporder

import "sort"

// Bad ranges directly over a map: flagged.
func Bad(m map[int]string) int {
	total := 0
	for k := range m { // violation: direct map range
		total += k
	}
	return total
}

// Collect gathers keys and sorts them before use: not flagged.
func Collect(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// CollectFiltered filters while collecting, then sorts: not flagged.
func CollectFiltered(m map[int]bool) []int {
	var keys []int
	for k := range m {
		if m[k] {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// CollectNoSort collects but never sorts: flagged.
func CollectNoSort(m map[int]bool) []int {
	var keys []int
	for k := range m { // violation: collected keys are never sorted
		keys = append(keys, k)
	}
	return keys
}

// HelperSorted uses a package-local sort helper: not flagged.
func HelperSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(a []int) { sort.Ints(a) }

// SliceRange ranges over a slice: never flagged.
func SliceRange(a []int) int {
	s := 0
	for _, v := range a {
		s += v
	}
	return s
}

// CollectSortOuter collects inside a conditional block and sorts at the end
// of the function: accepted by the function-level scan (previously a false
// positive of the block-local recognizer).
func CollectSortOuter(m map[int]bool, extra bool) []int {
	var keys []int
	if extra {
		for k := range m {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// CollectInLoopSortAfter collects across loop iterations and sorts once
// after the loop: accepted by the function-level scan.
func CollectInLoopSortAfter(ms []map[int]bool) []int {
	var keys []int
	for _, m := range ms {
		for k := range m {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// SortBeforeNotAfter sorts before the loop only: still flagged (the scan
// looks strictly after the collecting loop).
func SortBeforeNotAfter(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	sort.Ints(keys)
	for k := range m { // violation: nothing sorts after the collection
		keys = append(keys, k)
	}
	return keys
}
