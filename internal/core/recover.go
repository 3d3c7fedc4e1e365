package core

import (
	"fmt"
	"math"

	"distlap/internal/congest"
	"distlap/internal/faultinject"
	"distlap/internal/linalg"
	"distlap/internal/seedderive"
	"distlap/internal/simtrace"
)

// This file is the solver's self-checking recovery loop (DESIGN.md §9),
// active only when a Request carries a fault plan. The reliable path never
// enters it.
//
// The loop rests on one asymmetry: faults can corrupt everything the
// engines move — reductions, sweeps, even the solver's own convergence
// signal — but they cannot touch a locally computed true residual
// ‖b − Lx‖/‖b‖, because the simulator holds the whole state and linalg
// charges no rounds. Every attempt is therefore judged by that verified
// residual, and a run can end in exactly three ways: a verified result at
// the requested tolerance; a verified result at a degraded target with
// Metrics.Degraded = true; or a loud error. A silently wrong vector is
// structurally impossible, and every stage is bounded (engine round caps
// below, attempt caps here), so a faulty solve never hangs.
//
// The degradation ladder:
//  1. up to 1 + retries attempts at the requested tolerance, each under a
//     freshly derived engine seed (seedderive phase "retry", attempt
//     index) — new scheduling re-aligns which messages meet which faults;
//  2. up to 2 attempts at a coarser tolerance (×degradeFactor);
//  3. one attempt with the identity preconditioner over the global tree —
//     the existential-baseline shape — at the coarse tolerance;
//  4. error, wrapping the last attempt's failure.

// retries is the full-tolerance retry budget of stage 1.
const retries = 2

// degradeFactor coarsens the tolerance when full-tolerance retries
// exhaust (capped below 0.5).
const degradeFactor = 100

// coarseAttempts bounds stage-2 attempts at the degraded tolerance.
const coarseAttempts = 2

// solveRecovering runs the recovery loop. The caller has resolved tol and
// holds the CatchCancel guard; each attempt re-arms its own.
func (in *Instance) solveRecovering(b []float64, req Request, tol float64) (*Result, error) {
	n := in.g.N()
	if len(b) != n {
		return nil, fmt.Errorf("core: b has %d entries for n=%d", len(b), n)
	}
	tr := simtrace.OrNop(req.Trace)

	// The local verification oracle: true relative residual against the
	// mean-centered right-hand side, zero communication, incorruptible.
	lap := linalg.NewLaplacian(in.g)
	bc := linalg.Copy(b)
	linalg.CenterMean(bc)
	bNorm := linalg.Norm2(bc)
	verify := func(x []float64) float64 {
		if bNorm == 0 { //distlint:allow floateq exact-zero guard: b == 0 verifies any centered x == 0 exactly
			return 0
		}
		lx, err := lap.MatVec(x)
		if err != nil {
			return math.MaxFloat64
		}
		for i := range lx {
			lx[i] = bc[i] - lx[i]
		}
		return linalg.Norm2(lx) / bNorm
	}

	coarse := tol * degradeFactor
	if coarse > 0.5 {
		coarse = 0.5
	}

	var agg Metrics
	var faults faultinject.Stats
	var lastErr error
	attempt := 0

	// runAttempt executes one bounded solve attempt at the given target
	// tolerance, judging it by the verification oracle, and accumulates
	// its engine costs whether or not it succeeded.
	runAttempt := func(seed int64, target float64, baseline bool) *Result {
		attempt++
		areq := req
		areq.Seed = seed
		res, fs, err := in.attemptFaulty(b, areq, target, baseline, verify)
		faults.Add(fs)
		tr.Counter("recovery.attempts", 1)
		if err != nil {
			lastErr = err
			tr.Gauge("recovery.attempt", attempt, -1, agg.Congest.Rounds)
			return nil
		}
		addEngineMetrics(&agg, res.Metrics)
		tr.Gauge("recovery.attempt", attempt, res.Residual, agg.Congest.Rounds)
		// Iterate verified in-loop for PCG; Chebyshev results are verified
		// here. Re-checking is cheap and makes the invariant unconditional.
		if vres := verify(res.X); vres <= target {
			res.Residual = vres
			return res
		}
		lastErr = fmt.Errorf("%w: verified residual exceeds %g", linalg.ErrNoConverge, target)
		return nil
	}
	accumulate := func(res *Result) *Result {
		agg.Attempts = attempt
		agg.FaultsObserved = faults.Total()
		agg.Phases = PhasesOf(tr)
		res.Metrics = agg
		res.Rounds = agg.TotalRounds()
		return res
	}

	// Stage 1: full tolerance under re-derived seeds.
	for a := 0; a <= retries; a++ {
		seed := req.Seed
		if a > 0 {
			seed = seedderive.Derive(req.Seed, "retry", int64(a))
		}
		if res := runAttempt(seed, tol, false); res != nil {
			return accumulate(res), nil
		}
		if err := cancelErr(req); err != nil {
			return nil, err
		}
	}
	// Stage 2: coarser tolerance.
	tr.Counter("recovery.degraded", 1)
	for a := 0; a < coarseAttempts; a++ {
		seed := seedderive.Derive(req.Seed, "retry/coarse", int64(a))
		if res := runAttempt(seed, coarse, false); res != nil {
			res.Metrics.Degraded = true
			out := accumulate(res)
			out.Metrics.Degraded = true
			return out, nil
		}
		if err := cancelErr(req); err != nil {
			return nil, err
		}
	}
	// Stage 3: the existential-baseline fallback — identity preconditioner
	// over the global aggregation tree — at the coarse tolerance.
	seed := seedderive.Derive(req.Seed, "retry/baseline", 0)
	if res := runAttempt(seed, coarse, true); res != nil {
		out := accumulate(res)
		out.Metrics.Degraded = true
		return out, nil
	}
	if err := cancelErr(req); err != nil {
		return nil, err
	}
	// Stage 4: loud failure.
	return nil, fmt.Errorf("core: recovery exhausted after %d attempts under fault injection: %w",
		attempt, lastErr)
}

// attemptFaulty runs one solve attempt on a fresh faulty comm and reports
// the engines' fault tallies. Engine aborts (completeness failures, round
// budgets) surface as errors; cancellation panics are rematerialized here
// so the recovery loop can distinguish them via cancelErr.
func (in *Instance) attemptFaulty(
	b []float64, req Request, tol float64, baseline bool,
	verify func(x []float64) float64,
) (res *Result, fs faultinject.Stats, err error) {
	defer congest.CatchCancel(&err)
	c := in.Comm(req)
	defer func() {
		// Collect fault tallies on every exit path, including errors.
		switch cc := c.(type) {
		case *CongestComm:
			fs = cc.nw.FaultStats()
		case *HybridComm:
			fs = cc.nw.FaultStats()
			fs.Add(cc.global.FaultStats())
		}
	}()
	res, err = in.iterate(c, b, req, tol, baseline, verify)
	return res, fs, err
}

// addEngineMetrics accumulates one attempt's engine costs into the
// aggregate: rounds and messages sum across attempts, edge load is the
// maximum any attempt saw.
func addEngineMetrics(agg *Metrics, m Metrics) {
	agg.Congest.Rounds += m.Congest.Rounds
	agg.Congest.Messages += m.Congest.Messages
	if m.Congest.MaxEdgeLoad > agg.Congest.MaxEdgeLoad {
		agg.Congest.MaxEdgeLoad = m.Congest.MaxEdgeLoad
	}
	if m.NCC != nil {
		if agg.NCC == nil {
			agg.NCC = &EngineMetrics{}
		}
		agg.NCC.Rounds += m.NCC.Rounds
		agg.NCC.Messages += m.NCC.Messages
		if m.NCC.MaxEdgeLoad > agg.NCC.MaxEdgeLoad {
			agg.NCC.MaxEdgeLoad = m.NCC.MaxEdgeLoad
		}
	}
}

// cancelErr reports a pending request cancellation (nil otherwise), so the
// recovery loop aborts between attempts instead of retrying into a dead
// deadline.
func cancelErr(req Request) error {
	if req.Cancel == nil {
		return nil
	}
	return req.Cancel()
}
