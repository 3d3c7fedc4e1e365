package ncc

import "errors"

// The NCC engine's half of the fault-injection contract (DESIGN.md §9)
// lives in Deliver's one scheduling loop: under a plan (NewNetwork) each
// offered message takes its outcome from the network's faultinject.Link,
// keyed on (round, sender, receiver) — the clique has no edge identity, so
// flaky links do not apply — and Deliver owns only what the outcome does
// to the sender queues and the send and receive slots.

// ErrFaultBudget is returned when fault injection starves the scheduler
// past its round budget.
var ErrFaultBudget = errors.New("ncc: fault injection exhausted the round budget")
