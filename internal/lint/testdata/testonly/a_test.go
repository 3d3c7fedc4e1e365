package testonly

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 || Recursive(3) != 0 || (Orphan{}).Describe() != "orphan" {
		t.Fatal("fixture helpers changed")
	}
}
