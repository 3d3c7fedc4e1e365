package lint

import (
	"go/ast"
	"go/types"
)

// enginePkgs are the packages whose primitives report measurement-critical
// failures: a dropped error from one of them silently discards a failed
// exchange, an unflushed trace, or a broken embedding — the run keeps going
// and publishes wrong round counts.
var enginePkgs = []string{
	"distlap/internal/congest",
	"distlap/internal/ncc",
	"distlap/internal/simtrace",
	"distlap/internal/partwise",
	"distlap/internal/core",
	"distlap/internal/layered",
}

// ErrCheck returns the errcheck analyzer: inside internal/, a call to an
// engine-package function whose final result is an error must not appear as
// a bare statement (including `defer` and `go`). Assigning the error to `_`
// is visible intent and stays allowed; dropping it implicitly is flagged.
func ErrCheck() *Analyzer {
	return &Analyzer{
		Name: "errcheck",
		Doc: "flags statement-level calls that drop an error returned by a " +
			"congest/ncc/simtrace/partwise/core/layered primitive",
		Run: runErrCheck,
	}
}

func runErrCheck(p *Package) []Diagnostic {
	if !underInternal(p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = st.Call
			case *ast.GoStmt:
				call = st.Call
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || !underAny(fn.Pkg().Path(), enginePkgs) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || !lastResultIsError(sig) {
				return true
			}
			out = append(out, diag(p, n, "errcheck",
				"result of %s.%s includes an error that is silently dropped; handle it or assign it to _ explicitly",
				pkgBase(fn.Pkg().Path()), fn.Name()))
			return true
		})
	}
	return out
}

// calleeFunc resolves the function object a call statement invokes, or nil
// for conversions, builtins, and calls through function-typed values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	e := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch fe := e.(type) {
	case *ast.Ident:
		id = fe
	case *ast.SelectorExpr:
		id = fe.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// lastResultIsError reports whether the signature's final result is the
// built-in error type.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
