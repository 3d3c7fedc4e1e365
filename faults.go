package distlap

import (
	"distlap/internal/faultinject"
)

// FaultSpec configures deterministic fault injection for a request. All
// probabilities are per message (or per node, for crashes) and must lie in
// [0, 1]; DropProb + DupProb + DelayProb must not exceed 1. The zero
// FaultSpec means "no faults" and NewFaultPlan maps it to a nil plan — the
// reliable fast path.
//
// The injected execution is a pure function of (graph, request seed, plan):
// byte-identical across repeats, processes and solver parallelism. Drops
// model fair-lossy links under a reliable transport — a dropped word is
// charged and retransmitted, costing rounds and bandwidth, not
// correctness; a duplicated word is charged twice and taken once. Delays
// and crash-stop nodes are adversarial: they can corrupt a solve, which
// the self-checking recovery loop detects by local residual verification
// and answers with retries, tolerance degradation (Metrics.Degraded) or a
// loud error — never a silently wrong vector. See DESIGN.md §9.
type FaultSpec = faultinject.Spec

// FaultPlan is a validated, immutable fault plan, safe for concurrent use
// and reusable across requests (decisions depend only on round, edge and
// node identities, never on shared state).
type FaultPlan = faultinject.Plan

// NewFaultPlan validates a FaultSpec and compiles it into a reusable plan.
// A spec with no fault sources enabled returns (nil, nil): attaching a nil
// plan is exactly the reliable fast path.
func NewFaultPlan(spec FaultSpec) (*FaultPlan, error) { return faultinject.New(spec) }

// WithRequestFaults attaches a fault plan to this request only. The
// request runs the self-checking recovery loop: verified attempts, bounded
// retries under re-derived seeds, degradation to a coarser target when
// retries exhaust — reported in the result's Metrics (Attempts,
// FaultsObserved, Degraded). A nil plan leaves the request on the reliable
// fast path.
func WithRequestFaults(p *FaultPlan) ReqOption {
	return func(rc *reqCfg) { rc.Faults = p }
}
