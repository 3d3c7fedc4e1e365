package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeededRand returns the seededrand analyzer. Every randomized decision in
// the simulator must be replayable from an explicit Seed option, so the
// analyzer bans, in all non-test packages:
//
//   - math/rand (and math/rand/v2) package-level RNG functions, which draw
//     from a shared global source (rand.Intn, rand.Shuffle, rand.Seed, ...);
//   - seeding an RNG from the wall clock (time.Now inside the arguments of
//     rand.New / rand.NewSource / rand.NewPCG / rand.NewChaCha8).
//
// seededrand polices where entropy enters; its companion seedderive (see
// SeedDerive) polices how one seed becomes many, and walltime (see
// WallTime) bans every other clock read in simulator packages. Together
// they implement the DESIGN.md §7 concurrency & determinism contract:
// every RNG stream is a pure function of the explicit base seed and the
// point's position in the sweep, never of wall clock or execution order.
func SeededRand() *Analyzer {
	return &Analyzer{
		Name: "seededrand",
		Doc: "bans global math/rand functions and wall-clock-derived RNG " +
			"seeds in all non-test packages",
		Run: runSeededRand,
	}
}

// globalRandFuncs are the math/rand (v1 and v2) package-level functions
// backed by the process-global source. Constructors (New, NewSource, NewZipf,
// NewPCG, NewChaCha8) stay allowed: they take an explicit seed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true, "Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true, "Perm": true, "Shuffle": true,
	"Seed": true, "Read": true,
}

// randConstructors are the explicit-seed constructors whose argument trees
// must not contain wall-clock calls.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func runSeededRand(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		// Nested constructors (rand.New(rand.NewSource(...))) both see the
		// same clock call; report it once.
		seedClocks := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn := pkgFuncOf(p, call)
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn] {
					out = append(out, diag(p, call, "seededrand",
						"%s.%s draws from the process-global source and is not replayable; construct an explicit *rand.Rand from the Seed option", pkgBase(pkgPath), fn))
					return true
				}
				if randConstructors[fn] {
					if clock := findClockCall(p, call); clock != nil && !seedClocks[clock] {
						seedClocks[clock] = true
						out = append(out, diag(p, clock, "seededrand",
							"RNG seeded from the wall clock is not replayable; thread an explicit Seed option instead"))
					}
				}
			}
			return true
		})
	}
	return out
}

// pkgFuncOf resolves call's function to (package import path, function name)
// when it is a direct pkg.Func selector call; otherwise returns ("", "").
func pkgFuncOf(p *Package, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// findClockCall returns the first time.Now call in call's argument trees.
func findClockCall(p *Package, call *ast.CallExpr) ast.Node {
	var found ast.Node
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, fn := pkgFuncOf(p, inner); path == "time" && fn == "Now" {
				found = inner
				return false
			}
			return true
		})
	}
	return found
}

func pkgBase(path string) string {
	if path == "math/rand/v2" {
		return "rand"
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
