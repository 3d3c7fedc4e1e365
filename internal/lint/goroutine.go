package lint

import (
	"go/ast"
	"go/types"
)

// concurrencyExempt are the module-relative package suffixes allowed to use
// goroutines, channels and sync.Map: the experiment harness's bounded
// worker pool (whose record-and-replay recorder makes parallel sweeps
// byte-identical to sequential ones, DESIGN.md §7), the trace layer whose
// sinks it drives, and the distlapd serving layer (its mutex-guarded
// instance cache runs under net/http's per-request goroutines; the solver
// instances it serves are immutable, so concurrency never reaches a
// measured engine — each request runs a private one), and the obs metrics
// subsystem (its counters, gauges and histograms exist to be hammered by
// those same request goroutines while a scraper snapshots them; metric
// values are order-insensitive sums, so concurrency cannot reach the
// deterministic exposition). CI runs `go test -race` over exactly these
// packages; everything else in internal/... must stay single-goroutine so
// the Go scheduler can never order a measured execution.
var concurrencyExempt = []string{"/internal/experiments", "/internal/simtrace", "/internal/service", "/internal/obs"}

// Goroutine returns the goroutine analyzer: in internal/... outside the
// sanctioned packages it flags `go` statements, channel construction, and
// any use of sync.Map. Engines and solvers are confined to one goroutine
// for their whole lifetime — an unmanaged goroutine injects scheduling
// nondeterminism that no seed can replay, and sync.Map additionally
// iterates in unspecified order even under a single goroutine.
func Goroutine() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Doc: "flags go statements, channel makes, and sync.Map in internal " +
			"packages outside the experiments worker pool and simtrace",
		Run: runGoroutine,
	}
}

func runGoroutine(p *Package) []Diagnostic {
	if !underInternal(p.Path) {
		return nil
	}
	for _, suffix := range concurrencyExempt {
		if inScope(p.Path, suffix) {
			return nil
		}
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.GoStmt:
				out = append(out, diag(p, e, "goroutine",
					"unmanaged goroutine in %s: scheduler interleavings are not a function of the seed; deterministic parallelism lives behind the internal/experiments worker pool",
					p.Path))
			case *ast.CallExpr:
				if d, ok := channelMake(p, e); ok {
					out = append(out, d)
				}
			case *ast.SelectorExpr:
				if d, ok := syncMapUse(p, e); ok {
					out = append(out, d)
				}
			}
			return true
		})
	}
	return out
}

// channelMake reports make(chan ...) calls: a channel in single-goroutine
// simulator code either deadlocks or implies a goroutine this analyzer
// would flag anyway, so construction itself is the earliest signal.
func channelMake(p *Package, call *ast.CallExpr) (Diagnostic, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return Diagnostic{}, false
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return Diagnostic{}, false
	}
	t := p.Info.TypeOf(call.Args[0])
	if t == nil {
		return Diagnostic{}, false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return Diagnostic{}, false
	}
	return diag(p, call, "goroutine",
		"channel construction in %s implies cross-goroutine communication; deterministic simulator code is single-threaded (worker pools belong in internal/experiments)",
		p.Path), true
}

// syncMapUse reports any reference to the sync.Map type: its iteration
// order is unspecified and its fast path depends on contention history, so
// even read-mostly use leaks nondeterminism.
func syncMapUse(p *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || sel.Sel.Name != "Map" {
		return Diagnostic{}, false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync" {
		return Diagnostic{}, false
	}
	return diag(p, sel, "goroutine",
		"sync.Map iterates in unspecified order and is concurrency-bait; use an ordinary map with sorted sweeps (maporder rules) or move the code behind the experiments pool"), true
}
