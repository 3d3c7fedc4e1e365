package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatEqScopes are the package-path suffixes (relative to the module) the
// floateq analyzer applies to: the numerical kernel and everything that
// consumes its residuals.
var floatEqScopes = []string{"/internal/linalg", "/internal/core", "/internal/apps"}

// FloatEq returns the floateq analyzer: == and != between floating-point
// expressions in the numerical packages are flagged. Exact float equality
// silently depends on evaluation order and FMA contraction; convergence and
// residual checks must use tolerances. Deliberate exact-zero guards (e.g.
// before a division) are suppressed with //distlint:allow floateq and a
// justification.
func FloatEq() *Analyzer {
	return &Analyzer{
		Name: "floateq",
		Doc: "flags ==/!= between floating-point expressions in " +
			"internal/linalg, internal/core and internal/apps",
		Run: runFloatEq,
	}
}

func runFloatEq(p *Package) []Diagnostic {
	if !inFloatEqScope(p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			lt, rt := p.Info.TypeOf(be.X), p.Info.TypeOf(be.Y)
			if !isFloat(lt) && !isFloat(rt) {
				return true
			}
			// Two untyped constants compare at compile time with exact
			// arithmetic; that is fine.
			if isUntypedConst(p, be.X) && isUntypedConst(p, be.Y) {
				return true
			}
			out = append(out, diag(p, be, "floateq",
				"floating-point %s comparison is exact-bit equality; compare against a tolerance, or //%s floateq <why exact equality is intended>",
				be.Op, AllowDirective))
			return true
		})
	}
	return out
}

func inFloatEqScope(path string) bool {
	for _, s := range floatEqScopes {
		if strings.HasSuffix(path, s) || strings.Contains(path, s+"/") {
			return true
		}
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isUntypedConst(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUntyped != 0
}
