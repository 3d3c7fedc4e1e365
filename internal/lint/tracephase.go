package lint

import (
	"go/ast"
	"go/types"
)

// simtracePath is the package owning the span primitives; it is exempt from
// the tracephase analyzer (its own tests open and close spans piecemeal).
const simtracePath = "distlap/internal/simtrace"

// TracePhase returns the tracephase analyzer: inside every function body
// (function literals are separate scopes), each simtrace span name passed
// to Begin must also appear in an End call of the same scope, and vice
// versa. Error-path code legitimately calls End more than once per Begin
// (once before each early return), so the check is presence, not count —
// what it catches is the span that can never close (skewing every
// descendant phase's attribution) or the End that pops someone else's
// frame.
func TracePhase() *Analyzer {
	return &Analyzer{
		Name: "tracephase",
		Doc: "flags simtrace.Begin calls without a lexically matching End " +
			"in the same function scope (and stray Ends without a Begin)",
		Run: runTracePhase,
	}
}

// spanCall is one Begin/End call attributed to its function scope.
type spanCall struct {
	call *ast.CallExpr
	name string // types.ExprString of the argument
}

func runTracePhase(p *Package) []Diagnostic {
	if p.Path == simtracePath {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		begins := make(map[ast.Node][]spanCall)
		ends := make(map[ast.Node][]spanCall)
		var scopeOrder []ast.Node // scopes in first-seen (source) order
		noteScope := func(s ast.Node) {
			if len(begins[s]) == 0 && len(ends[s]) == 0 {
				scopeOrder = append(scopeOrder, s)
			}
		}
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if sel.Sel.Name != "Begin" && sel.Sel.Name != "End" {
				return true
			}
			if !isSimtraceRecv(p, sel.X) {
				return true
			}
			scope := enclosingFunc(stack)
			if scope == nil {
				return true
			}
			sc := spanCall{call: call, name: types.ExprString(call.Args[0])}
			noteScope(scope)
			if sel.Sel.Name == "Begin" {
				begins[scope] = append(begins[scope], sc)
			} else {
				ends[scope] = append(ends[scope], sc)
			}
			return true
		})
		for _, scope := range scopeOrder {
			endNames := make(map[string]bool)
			for _, e := range ends[scope] {
				endNames[e.name] = true
			}
			beginNames := make(map[string]bool)
			seen := make(map[string]bool)
			for _, b := range begins[scope] {
				beginNames[b.name] = true
				if !endNames[b.name] && !seen[b.name] {
					seen[b.name] = true
					out = append(out, diag(p, b.call, "tracephase",
						"span %s is opened here but never closed in this function; an unclosed span misattributes every later charge", b.name))
				}
			}
			seen = make(map[string]bool)
			for _, e := range ends[scope] {
				if !beginNames[e.name] && !seen[e.name] {
					seen[e.name] = true
					out = append(out, diag(p, e.call, "tracephase",
						"span %s is closed here but never opened in this function; a stray End pops the caller's frame", e.name))
				}
			}
		}
	}
	return out
}

// isSimtraceRecv reports whether the receiver expression's static type
// resolves (through pointers) to a named type declared in the simtrace
// package — the Collector interface or one of its sinks.
func isSimtraceRecv(p *Package, recv ast.Expr) bool {
	t := p.Info.TypeOf(recv)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == simtracePath
}

// enclosingFunc returns the innermost FuncDecl or FuncLit in the ancestor
// stack (outermost first), or nil for calls outside any function body.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
