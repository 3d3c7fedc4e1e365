package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder returns the maporder analyzer: in non-test internal/... code,
// `range` over a map is flagged unless the loop only collects keys/values
// into slices that are subsequently sorted later in the same function — the
// collect-then-sort idiom (see internal/shortcut/region.go, separator
// folding). Go randomizes map iteration order per execution, so any other
// map range can leak schedule nondeterminism into measured round counts.
//
// The recognizer is intraprocedural: the sort call may appear in any
// enclosing statement list of the same function *after* the collecting
// loop (not only the loop's own block), so collect-inside-a-condition /
// sort-at-function-end no longer false-positives. Helpers recognized as
// sorting are sort.*/slices.* calls and names containing "sort".
func MapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc: "flags range over a map in internal packages unless the keys are " +
			"collected into a slice and sorted before use (function-level scan)",
		Run: runMapOrder,
	}
}

func runMapOrder(p *Package) []Diagnostic {
	if !underInternal(p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if collectThenSort(p, rs, stack) {
				return true
			}
			out = append(out, diag(p, rs, "maporder",
				"range over map %s is iteration-order nondeterministic; collect keys, sort, then sweep (internal/shortcut/region.go pattern), or //%s maporder <why order cannot matter>",
				types.TypeString(t, types.RelativeTo(p.Types)), AllowDirective))
			return true
		})
	}
	return out
}

// collectThenSort reports whether rs is the blessed idiom: the loop body
// only collects loop variables (or expressions over them) into slices —
// append assignments, possibly behind filtering if/continue — and at least
// one of those slices is later passed to a sort call. The scan is
// function-level: starting from the loop's own statement list, every
// enclosing statement list up to the function boundary is searched, but
// only at statements that execute after the loop (lexically after the
// chain node containing it).
func collectThenSort(p *Package, rs *ast.RangeStmt, stack []ast.Node) bool {
	targets := make(map[string]bool)
	if !collectOnly(rs.Body.List, targets) || len(targets) == 0 {
		return false
	}
	child := ast.Node(rs)
	for i := len(stack) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false // function boundary: stop
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		case *ast.CommClause:
			list = b.Body
		default:
			child = b
			continue
		}
		after := false
		for _, st := range list {
			if ast.Node(st) == child {
				after = true
				continue
			}
			if after && sortsATarget(st, targets) {
				return true
			}
		}
		child = stack[i]
	}
	return false
}

// sortsATarget reports whether st contains a sort call over one of the
// collection targets.
func sortsATarget(st ast.Stmt, targets map[string]bool) bool {
	sorted := false
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && targets[id.Name] {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// collectOnly reports whether every statement is an append into a slice
// (recorded in targets), a filtering if around such appends, or a continue.
func collectOnly(stmts []ast.Stmt, targets map[string]bool) bool {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			lhs, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "append" {
				return false
			}
			targets[lhs.Name] = true
		case *ast.IfStmt:
			if !collectOnly(s.Body.List, targets) {
				return false
			}
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					if !collectOnly(e.List, targets) {
						return false
					}
				case *ast.IfStmt:
					if !collectOnly([]ast.Stmt{e}, targets) {
						return false
					}
				default:
					return false
				}
			}
		case *ast.BranchStmt:
			if s.Label != nil {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isSortCall recognizes sort.X(...), slices.X(...) and helper functions
// whose name contains "sort" (sortKeys, sortEdgeIDs, ...).
func isSortCall(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fn.Name), "sort")
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
			return true
		}
		return strings.Contains(strings.ToLower(fn.Sel.Name), "sort")
	}
	return false
}
