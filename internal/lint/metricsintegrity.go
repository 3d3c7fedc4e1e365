package lint

import (
	"go/ast"
	"go/types"
)

// metricsOwners maps the packages owning communication metrics to the named
// types whose fields may only be written inside them. All round/message
// accounting must flow through the charging primitives those packages export
// (Exchange, ChargeRounds, Deliver, ...).
var metricsOwners = map[string][]string{
	"distlap/internal/congest": {"Metrics", "Network"},
	"distlap/internal/ncc":     {"Network"},
}

// MetricsIntegrity returns the metricsintegrity analyzer: outside the owning
// package, any assignment, compound assignment or ++/-- whose target is a
// field of congest.Metrics (or of the congest/ncc Network engines), and any
// non-zero congest.Metrics composite literal, is flagged — such writes
// fabricate or corrupt measured round counts.
func MetricsIntegrity() *Analyzer {
	return &Analyzer{
		Name: "metricsintegrity",
		Doc: "flags direct writes to congest/ncc metrics state outside the " +
			"owning package; accounting must go through charging primitives",
		Run: runMetricsIntegrity,
	}
}

func runMetricsIntegrity(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if d, ok := guardedWrite(p, lhs); ok {
						out = append(out, d)
					}
				}
			case *ast.IncDecStmt:
				if d, ok := guardedWrite(p, st.X); ok {
					out = append(out, d)
				}
			case *ast.UnaryExpr:
				// &m.Rounds etc. — taking the address of a metrics field
				// enables writes the analyzer cannot see; flag it too.
				if st.Op.String() == "&" {
					if d, ok := guardedWrite(p, st.X); ok {
						out = append(out, d)
					}
				}
			case *ast.CompositeLit:
				if d, ok := fabricatedMetrics(p, st); ok {
					out = append(out, d)
				}
			}
			return true
		})
	}
	return out
}

// guardedWrite reports whether expr is a selector (possibly through an
// index, e.g. nets[i].metrics.Rounds) whose base value is one of the guarded
// metrics types owned by another package.
func guardedWrite(p *Package, expr ast.Expr) (Diagnostic, bool) {
	e := expr
	for {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return Diagnostic{}, false
	}
	owner, typeName := guardedType(p, p.Info.TypeOf(sel.X))
	if owner == "" || owner == p.Path {
		return Diagnostic{}, false
	}
	return diag(p, expr, "metricsintegrity",
		"write to %s.%s field %s outside %s fabricates measured communication costs; charge through the engine's primitives (Exchange/ChargeRounds/Deliver)",
		pkgBase(owner), typeName, sel.Sel.Name, owner), true
}

// fabricatedMetrics flags congest.Metrics{...} literals with at least one
// element constructed outside the owning package.
func fabricatedMetrics(p *Package, lit *ast.CompositeLit) (Diagnostic, bool) {
	if len(lit.Elts) == 0 {
		return Diagnostic{}, false
	}
	owner, typeName := guardedType(p, p.Info.TypeOf(lit))
	if owner == "" || owner == p.Path || typeName != "Metrics" {
		return Diagnostic{}, false
	}
	return diag(p, lit, "metricsintegrity",
		"constructing a non-zero %s.Metrics outside %s fabricates measured communication costs", pkgBase(owner), owner), true
}

// guardedType resolves t (through pointers) to an owning package path and
// type name if it is one of the guarded metrics types.
func guardedType(p *Package, t types.Type) (string, string) {
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	path := named.Obj().Pkg().Path()
	for _, name := range metricsOwners[path] {
		if named.Obj().Name() == name {
			return path, name
		}
	}
	return "", ""
}
