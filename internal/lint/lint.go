// Package lint is a repo-specific static-analysis driver, written purely
// with the standard library's go/ast, go/parser, go/token and go/types. It
// enforces the invariants every measured round count in this repository
// rests on (DESIGN.md "Determinism & verification"):
//
//  1. Determinism — identical seeds must produce identical executions, so
//     no iteration over map order, no global or wall-clock-seeded
//     randomness, no wall-clock reads at all in simulator packages, and no
//     ad-hoc arithmetic deriving child seeds outside internal/seedderive
//     (analyzers maporder, seededrand, walltime, seedderive);
//  2. Model soundness — message payloads are charged honestly in the
//     CONGEST cost model: no silently truncating conversion into
//     congest.Word and no unchecked multi-field packing (analyzer
//     wordtrunc), and no unmanaged concurrency outside the sanctioned
//     worker pool, which would let scheduler nondeterminism leak into
//     measurements (analyzer goroutine);
//  3. Metrics integrity — round/message accounting flows only through the
//     congest/ncc charging primitives, never through direct field writes
//     (analyzers metricsintegrity, floateq for the residual checks those
//     metrics gate);
//  4. Trace integrity — every simtrace span opened in a function is also
//     closed there, so phase attribution cannot silently skew (analyzer
//     tracephase), and errors reported by engine primitives are never
//     dropped on the floor (analyzer errcheck);
//  5. A used surface — no exported identifier in internal/... that only
//     tests reference (analyzer testonly).
//
// Every unsuppressed finding fails a run. Findings can be suppressed with a justification comment on the flagged
// line or the line directly above it:
//
//	//distlint:allow <check>[,<check>...] <why this is safe>
//
// The justification is mandatory: a directive with no trailing text is
// itself a diagnostic (analyzer allowjustify), as is one naming an unknown
// analyzer.
//
// All analyzers share one parse + type-check pass per package (see Loader):
// a package is loaded once and every analyzer runs over the same *Package.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string // analyzer name
	Message string

	// Suppressed marks findings covered by a //distlint:allow directive.
	// RunAll returns them: the JSON report records suppression state, and
	// only unsuppressed findings fail a run.
	Suppressed bool
	// Justification is the directive's trailing free text for suppressed
	// findings ("" when the directive carries none — which allowjustify
	// flags as its own finding).
	Justification string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check run over a loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder(),
		SeededRand(),
		SeedDerive(),
		MetricsIntegrity(),
		FloatEq(),
		TracePhase(),
		ErrCheck(),
		WordTrunc(),
		AllowJustify(),
		Goroutine(),
		WallTime(),
		TestOnly(),
	}
}

// Select filters the suite by the enable/disable lists: enable, when
// non-empty, keeps only the named analyzers (in the order given); disable
// then removes names. Unknown names in either list are an error.
func Select(all []*Analyzer, enable, disable []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	out := all
	if len(enable) > 0 {
		out = nil
		for _, name := range enable {
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q", name)
			}
			out = append(out, a)
		}
	}
	if len(disable) > 0 {
		drop := make(map[string]bool, len(disable))
		for _, name := range disable {
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q", name)
			}
			drop[name] = true
		}
		var kept []*Analyzer
		for _, a := range out {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		out = kept
	}
	return out, nil
}

// knownChecks is the set of analyzer names in the suite, for validating
// allow directives (allowjustify flags directives naming anything else).
func knownChecks() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// AllowDirective is the comment prefix that suppresses findings.
const AllowDirective = "distlint:allow"

// allowSpec is one parsed //distlint:allow directive.
type allowSpec struct {
	comment       *ast.Comment
	checks        []string // named analyzers, in directive order
	justification string   // trailing free text, "" when missing
}

// parseAllow parses c as an allow directive; ok is false when c is not one.
// A directive is "//distlint:allow <check>[,<check>...] <justification>".
func parseAllow(c *ast.Comment) (spec allowSpec, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, AllowDirective) {
		return allowSpec{}, false
	}
	rest := strings.TrimPrefix(text, AllowDirective)
	spec.comment = c
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return spec, true // degenerate directive: no checks, no justification
	}
	for _, check := range strings.Split(fields[0], ",") {
		if check = strings.TrimSpace(check); check != "" {
			spec.checks = append(spec.checks, check)
		}
	}
	spec.justification = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	return spec, true
}

// allows collects every allow directive in the package's files, in file
// order. Results are memoized on the package so the directive scan — like
// the type-check pass — happens once however many analyzers consume it.
func (p *Package) allows() []allowSpec {
	if p.allowSpecs != nil {
		return *p.allowSpecs
	}
	specs := []allowSpec{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if spec, ok := parseAllow(c); ok {
					specs = append(specs, spec)
				}
			}
		}
	}
	p.allowSpecs = &specs
	return specs
}

// allowKey identifies a (file, line) position an allow directive covers.
type allowKey struct {
	file string
	line int
}

// allowSet maps covered positions to allowed check names and the directive
// justification. A directive covers its own line and the line directly
// below it, so it can sit at the end of the flagged line or alone on the
// line above.
type allowSet map[allowKey]map[string]string

func collectAllows(p *Package) allowSet {
	set := make(allowSet)
	for _, spec := range p.allows() {
		pos := p.Fset.Position(spec.comment.Pos())
		for _, check := range spec.checks {
			for _, line := range []int{pos.Line, pos.Line + 1} {
				k := allowKey{file: pos.Filename, line: line}
				if set[k] == nil {
					set[k] = make(map[string]string)
				}
				set[k][check] = spec.justification
			}
		}
	}
	return set
}

// RunAll executes the analyzers over the packages and returns every finding,
// suppressed ones included (marked, with their justification), sorted by
// position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		allows := collectAllows(p)
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				k := allowKey{file: d.Pos.Filename, line: d.Pos.Line}
				if why, ok := allows[k][d.Check]; ok {
					d.Suppressed = true
					d.Justification = why
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// diag builds a Diagnostic for a node in p.
func diag(p *Package, n ast.Node, check, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(n.Pos()),
		Check:   check,
		Message: fmt.Sprintf(format, args...),
	}
}

// underInternal reports whether the package path lies under
// <module>/internal/ (module path is the first path element sequence before
// "/internal/").
func underInternal(path string) bool {
	return strings.Contains(path, "/internal/")
}

// underAny reports whether path equals one of the roots or lies beneath one
// (path-segment-aware prefix match).
func underAny(path string, roots []string) bool {
	for _, r := range roots {
		if path == r || strings.HasPrefix(path, r+"/") {
			return true
		}
	}
	return false
}

// inScope reports whether path lies at or below the module-relative package
// suffix (e.g. "/internal/experiments").
func inScope(path, suffix string) bool {
	return strings.HasSuffix(path, suffix) || strings.Contains(path, suffix+"/")
}

// callSite is one resolved pkg.Func(...) call.
type callSite struct {
	node *ast.CallExpr
	pkg  string // import path of the called package
	fn   string // function name
}

// forEachPkgCall walks f invoking fn for every call that is a direct
// pkg.Func selector (as resolved by pkgFuncOf).
func forEachPkgCall(p *Package, f *ast.File, fn func(callSite)) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgPath, name := pkgFuncOf(p, call); pkgPath != "" {
			fn(callSite{node: call, pkg: pkgPath, fn: name})
		}
		return true
	})
}

// inspectWithStack walks f invoking fn with each node and the stack of its
// ancestors (outermost first, not including n itself). Returning false from
// fn prunes the subtree.
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
