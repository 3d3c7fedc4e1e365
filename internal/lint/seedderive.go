package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// SeedDerive returns the seedderive analyzer. Child RNG seeds must be
// derived through seedderive.Derive(base, phase, idx) — never by ad-hoc
// arithmetic like `seed + round*7919`, which silently collides across
// phases (phase A at index 7919 shares a stream with phase B at index 0)
// and thereby correlates draws the theory assumes independent. The
// analyzer flags, in internal/ packages (internal/seedderive itself
// excepted), any arithmetic or bitwise expression over a seed-named
// identifier or field, and any compound assignment or ++/-- mutating one.
//
// Passing a seed unchanged (as an argument, struct field, or conversion
// operand) is allowed; only deriving new values from it by hand is not.
func SeedDerive() *Analyzer {
	return &Analyzer{
		Name: "seedderive",
		Doc: "requires child seeds to come from seedderive.Derive, banning " +
			"ad-hoc arithmetic on seed-named identifiers in internal/ packages",
		Run: runSeedDerive,
	}
}

func runSeedDerive(p *Package) []Diagnostic {
	if !underInternal(p.Path) || strings.HasSuffix(p.Path, "/internal/seedderive") {
		return nil
	}
	var out []Diagnostic
	report := func(n ast.Node, name string) {
		out = append(out, diag(p, n, "seedderive",
			"ad-hoc arithmetic on seed %q risks cross-phase collisions; derive child seeds through seedderive.Derive(base, phase, idx)", name))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if arithmeticOp(n.Op) {
					if id := seedIdentIn(n); id != nil {
						report(n, id.Name)
						return false // outermost expression only
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						if id := seedIdentIn(lhs); id != nil {
							report(n, id.Name)
							return false
						}
					}
				}
			case *ast.IncDecStmt:
				if id := seedIdentIn(n.X); id != nil {
					report(n, id.Name)
					return false
				}
			}
			return true
		})
	}
	return out
}

// arithmeticOp reports whether op combines values arithmetically or
// bitwise — the operations ad-hoc seed derivations are built from.
func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}

// seedIdentIn returns the first identifier in the subtree whose name marks
// it as a seed ("seed", "Seed", or a *Seed suffix like "baseSeed"), or nil.
func seedIdentIn(root ast.Node) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && isSeedName(id.Name) {
			found = id
			return false
		}
		return true
	})
	return found
}

func isSeedName(name string) bool {
	return name == "seed" || name == "Seed" || strings.HasSuffix(name, "Seed")
}
