package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"distlap/internal/experiments"
)

// perLayer lists the per-layer metrics every traced run prints. The layer
// of each is its name up to the first dot; README.md maps each one to the
// end-to-end metric it should move.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"service.overhead_ms.solve", "ms"},
		{"service.overhead_ms.batch", "ms"},
		{"service.overhead_ms.flow", "ms"},
		{"service.overhead_ms.mst", "ms"},
		{"service.load_ms", "ms"},
		{"service.wire_kb_per_op", "KiB"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.cache_evictions", "count"},
		{"service.rejected", "count"},
		{"service.repeat_share", "ratio"},
		{"core.prepare_ms", "ms"},
		{"core.comm_build_us", "us"},
		{"core.iterations_per_solve", "count"},
		{"core.wall_us_per_round", "us"},
		{"core.untracked_ms", "ms"},
		{"core.attempts_per_solve", "count"},
		{"core.degraded_rate", "ratio"},
	}
	for _, ph := range solvePhases {
		out = append(out, struct{ name, unit string }{"core.phase." + ph.path + ".self_ms", "ms"})
		if ph.perMsg {
			out = append(out, struct{ name, unit string }{"core.phase." + ph.path + ".ns_per_msg", "ns"})
		}
	}
	for _, k := range []string{"matvec", "global_sums", "tree_totals", "tree_updown"} {
		out = append(out,
			struct{ name, unit string }{"congest." + k + "_us", "us"},
			struct{ name, unit string }{"congest." + k + "_ns_per_msg", "ns"})
	}
	out = append(out, []struct{ name, unit string }{
		{"ncc.global_sums_us", "us"},
		{"ncc.global_sums_ns_per_msg", "ns"},
		{"faultinject.slowdown", "ratio"},
		{"faultinject.events_per_solve", "count"},
		{"faultinject.wasted_msg_ratio", "ratio"},
		{"linalg.matvec_ns_per_nnz", "ns"},
		{"simtrace.span_overhead_pct", "%"},
		{"simtrace.inmemory_overhead_pct", "%"},
		{"runtime.gc_cycles_per_op", "count"},
	}...)
	for _, id := range experiments.IDs() {
		out = append(out, struct{ name, unit string }{"experiments." + id + "_ms", "ms"})
	}
	return out
}()

// solvePhases are the solver phases the traced run splits a request into,
// by span path below the request's root span; "ncc-up" and "ncc-down" are
// matched by name wherever they nest (under solve.reduce and solve.norms in
// hybrid mode; absent, so 0, elsewhere). perMsg marks phases that move words
// themselves, which also get a time-per-word metric. "mst" is split from
// the MST requests, the rest from the solves.
var solvePhases = []struct {
	path   string
	perMsg bool
}{
	{"solve", false},
	{"solve.norms", true},
	{"solve.reduce", true},
	{"solve.matvec", true},
	{"solve.precond", false},
	{"solve.precond.restrict", true},
	{"solve.precond.sweep", true},
	{"solve.precond.center", true},
	{"ncc-up", true},
	{"ncc-down", true},
	{"mst", true},
}

// phaseSplit attributes every nanosecond and word of the given operations
// to a listed phase: each span's self time and own words go to its nearest
// listed ancestor-or-self (a span matches by its path, or by its name for
// the NCC phases), and what reaches no listed phase (the root's own time,
// or an unlisted phase outside every listed one) is untracked. The listed
// self times plus the untracked time therefore add up to the root spans'
// durations exactly. Times are means per operation.
func phaseSplit(ops [][]span) (selfMS map[string]float64, nsPerMsg map[string]float64, untrackedMS float64) {
	listed := map[string]bool{}
	for _, ph := range solvePhases {
		listed[ph.path] = true
	}
	byName := map[string]bool{"ncc-up": true, "ncc-down": true}
	selfNS := map[string]int64{}
	words := map[string]int64{}
	var untracked int64
	for _, op := range ops {
		ix := indexSpans(op)
		owner := make([]string, len(op))
		for i := range op {
			// Spans are stored parents first, so the owner of the parent is
			// known when a child is reached.
			path := ix.path(i)
			switch {
			case op[i].Parent < 0:
				owner[i] = ""
			case listed[path]:
				owner[i] = path
			case byName[op[i].Name]:
				owner[i] = op[i].Name
			default:
				owner[i] = owner[ix.byKey[spanKey{op[i].Op, op[i].Parent}]]
			}
			if owner[i] == "" {
				untracked += ix.self(i)
				continue
			}
			selfNS[owner[i]] += ix.self(i)
			words[owner[i]] += op[i].Messages
		}
	}
	n := float64(len(ops))
	selfMS = map[string]float64{}
	nsPerMsg = map[string]float64{}
	for path, ns := range selfNS {
		selfMS[path] = float64(ns) / 1e6 / n
		nsPerMsg[path] = ratio(float64(ns), float64(words[path]))
	}
	return selfMS, nsPerMsg, float64(untracked) / 1e6 / n
}

// traced is the traced run: set-up, one pass over the operation list with
// a root span per operation, the layer probe on the workload's probe
// instance, and one pass of the experiment suite (the workload's own pass
// for paper-suite). It returns the per-layer metrics and writes every span
// to spansPath.
func traced(ctx context.Context, wl workload, spansPath string) (result, error) {
	s, _, err := setUp(ctx, wl)
	if err != nil {
		return result{}, err
	}
	rec := newRecorder()
	vals := map[string]float64{}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass := drive(ctx, s, wl.size(), wl.clients(), 0, true, rec)
	runtime.ReadMemStats(&m1)
	vals["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / float64(pass.ops())
	attempted, failed := pass.ops(), pass.failed

	spec := wl.probe()
	g, err := spec.graph.build()
	if err != nil {
		return result{}, closeAfter(s, err)
	}
	p := &prober{ctx: ctx, spec: spec, rec: rec, g: g, vals: vals}
	probeDaemon, err := runProbe(p)
	if probeDaemon != nil {
		defer func() { _ = probeDaemon.stop() }() // stopped after the counter read below
	}
	if err != nil {
		return result{}, closeAfter(s, err)
	}
	attempted += p.attempted
	failed += p.failed

	// Serving metrics describe the daemon that carried the workload's own
	// traffic when there is one, else the probe's. Only serve-mix repeats
	// requests.
	d := probeDaemon
	vals["service.repeat_share"] = 0
	if ss, ok := s.(*serveSession); ok {
		d = ss.d
		vals["service.repeat_share"] = ss.w.repeatShare()
	}
	if err := serviceCounters(ctx, d, vals); err != nil {
		return result{}, closeAfter(s, err)
	}
	if err := s.close(); err != nil {
		return result{}, err
	}

	if _, ok := wl.(*paperSuite); !ok {
		suite := newPaperSuite(".", 0, 1, 1)
		ss, err := suite.open(ctx)
		if err != nil {
			return result{}, err
		}
		sp := drive(ctx, ss, suite.size(), 1, 0, true, rec)
		attempted += sp.ops()
		failed += sp.failed
	}
	var spans []span
	rec.mu.Lock()
	spans = append(spans, rec.spans...)
	rec.mu.Unlock()
	experimentTimes(spans, vals)

	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "distbench: wrote %d spans to %s\n", len(spans), spansPath)

	res := result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// runProbe runs every part of the layer probe. The returned daemon, when
// non-nil, is still running and belongs to the caller.
func runProbe(p *prober) (*daemon, error) {
	if err := p.prepare(); err != nil {
		return nil, err
	}
	if err := p.commBuild(); err != nil {
		return nil, err
	}
	solves, err := p.solveProbe()
	if err != nil {
		return nil, err
	}
	msts, err := p.mstProbe()
	if err != nil {
		return nil, err
	}
	self, perMsg, untracked := phaseSplit(solves)
	mstSelf, mstPerMsg, _ := phaseSplit(msts)
	for _, ph := range solvePhases {
		src, srcMsg := self, perMsg
		if ph.path == "mst" {
			src, srcMsg = mstSelf, mstPerMsg
		}
		p.vals["core.phase."+ph.path+".self_ms"] = src[ph.path]
		if ph.perMsg {
			p.vals["core.phase."+ph.path+".ns_per_msg"] = srcMsg[ph.path]
		}
	}
	p.vals["core.untracked_ms"] = untracked
	if err := p.kernels(); err != nil {
		return nil, err
	}
	return p.serviceProbe()
}

// serviceCounters reads a daemon's cache and admission counters and its
// client's wire bytes.
func serviceCounters(ctx context.Context, d *daemon, vals map[string]float64) error {
	st, err := d.statusz(ctx)
	if err != nil {
		return err
	}
	hits := float64(st.Cache.Hits)
	vals["service.cache_hit_ratio"] = ratio(hits, hits+float64(st.Cache.Misses))
	vals["service.cache_evictions"] = float64(st.Cache.Evictions)
	vals["service.rejected"] = float64(st.ResponsesByClass["5xx"])
	vals["service.wire_kb_per_op"] = ratio(float64(d.wire.Load())/1024, float64(d.sent.Load()))
	return nil
}

// experimentTimes sets experiments.<ID>_ms to the mean duration of the
// experiment's spans.
func experimentTimes(spans []span, vals map[string]float64) {
	sum := map[string]float64{}
	count := map[string]float64{}
	for _, s := range spans {
		if id, ok := strings.CutPrefix(s.Name, "experiments.E"); ok {
			id = "E" + id
			sum[id] += float64(s.dur()) / 1e6
			count[id]++
		}
	}
	for id := range sum {
		vals["experiments."+id+"_ms"] = sum[id] / count[id]
	}
}
