package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// congestPath is the module-relative suffix of the package owning the Word
// payload type and its sanctioned encoders (FloatWord, PackWord).
const congestPath = "/internal/congest"

// WordTrunc returns the wordtrunc analyzer. The CONGEST model transmits
// O(log n)-bit words; congest.Word is the simulator's payload type and the
// engines charge exactly one word per message. A conversion that silently
// changes the value on its way into a Word therefore under-charges the
// model — the payload the algorithm meant to send did not fit, and instead
// of being split into ceil(bits/congest.WordBits) words it was truncated.
// In internal/... the analyzer flags:
//
//   - float -> Word conversions (the fractional part is discarded; use
//     congest.FloatWord, the exact bit-level encoding, or send multiple
//     words);
//   - uint64/uint/uintptr -> Word conversions (values above 2^63-1 wrap
//     negative; bit-level reinterpretation must be justified);
//   - non-constant shift-packing of a Word conversion (congest.Word(x)<<k):
//     multi-field payloads must go through congest.PackWord, which panics
//     on field overflow instead of corrupting the payload.
//
// Constant expressions are exempt: constant conversions that would lose
// value do not compile, and constant shifts build sentinels, not payloads.
func WordTrunc() *Analyzer {
	return &Analyzer{
		Name: "wordtrunc",
		Doc: "flags value-changing conversions into congest.Word (float " +
			"truncation, unsigned wraparound, unchecked shift-packing)",
		Run: runWordTrunc,
	}
}

func runWordTrunc(p *Package) []Diagnostic {
	if !underInternal(p.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if d, ok := truncatingWordConversion(p, e); ok {
					out = append(out, d)
				}
			case *ast.BinaryExpr:
				if d, ok := uncheckedPacking(p, e); ok {
					out = append(out, d)
				}
			}
			return true
		})
	}
	return out
}

// truncatingWordConversion reports a conversion congest.Word(x) whose
// operand type can change value across the conversion.
func truncatingWordConversion(p *Package, call *ast.CallExpr) (Diagnostic, bool) {
	if !isWordConversion(p, call) {
		return Diagnostic{}, false
	}
	arg := call.Args[0]
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Value != nil { // constants convert exactly or fail to compile
		return Diagnostic{}, false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return Diagnostic{}, false
	}
	switch {
	case b.Info()&types.IsFloat != 0:
		return diag(p, call, "wordtrunc",
			"converting %s to congest.Word discards the fractional part, silently truncating the payload; encode with congest.FloatWord (exact bit-level round-trip) or split into congest.WordsFor-charged words",
			types.TypeString(tv.Type, types.RelativeTo(p.Types))), true
	case b.Kind() == types.Uint64 || b.Kind() == types.Uint || b.Kind() == types.Uintptr:
		return diag(p, call, "wordtrunc",
			"converting %s to congest.Word reinterprets values above 2^63-1 as negative; a deliberate bit-level encoding needs //%s wordtrunc <why the round-trip is exact>",
			types.TypeString(tv.Type, types.RelativeTo(p.Types)), AllowDirective), true
	}
	return Diagnostic{}, false
}

// uncheckedPacking reports a non-constant left-shift of a Word conversion
// by a sizeable constant — the hand-rolled field-packing idiom that can
// silently overflow into (or past) the sign bit.
func uncheckedPacking(p *Package, be *ast.BinaryExpr) (Diagnostic, bool) {
	if be.Op != token.SHL {
		return Diagnostic{}, false
	}
	if tv, ok := p.Info.Types[be]; ok && tv.Value != nil {
		return Diagnostic{}, false // constant sentinel, not a payload
	}
	lhs, ok := ast.Unparen(be.X).(*ast.CallExpr)
	if !ok || !isWordConversion(p, lhs) {
		return Diagnostic{}, false
	}
	shift, ok := p.Info.Types[be.Y]
	if !ok || shift.Value == nil {
		return Diagnostic{}, false
	}
	if v, exact := constInt64(shift); !exact || v < 8 {
		return Diagnostic{}, false
	}
	return diag(p, be, "wordtrunc",
		"hand-packed congest.Word payload can overflow its field widths undetected; pack with congest.PackWord (checked, panics instead of truncating) or charge congest.WordsFor(bits) words"), true
}

// isWordConversion reports whether call is a conversion whose target type
// is the congest package's Word alias (written congest.Word or, inside the
// owning package, Word). Word is a type alias for int64, so this is a
// syntactic check on the resolved type name — types.Identical cannot tell
// Word apart from int64.
func isWordConversion(p *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	tn, ok := p.Info.Uses[id].(*types.TypeName)
	if !ok || tn.Name() != "Word" || tn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(tn.Pkg().Path(), congestPath)
}

// constInt64 extracts an exact int64 from a constant type-and-value.
func constInt64(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
