package lint

// AllowJustify returns the allowjustify analyzer: every //distlint:allow
// directive must carry a trailing justification — a suppression is a claim
// that the flagged code is safe, and the claim must say why, on the line,
// where review sees it. The analyzer also flags directives that name no
// analyzer at all or an analyzer outside the suite: both rot silently —
// they suppress nothing, so a later genuine finding on that line appears
// to be "already reviewed" when it never was.
//
// allowjustify findings are themselves suppressible (the directive grammar
// is uniform), but doing so needs a justified directive, so the invariant
// cannot be talked out of by the thing it polices.
func AllowJustify() *Analyzer {
	return &Analyzer{
		Name: "allowjustify",
		Doc: "flags //distlint:allow directives without a trailing " +
			"justification, and ones naming no or unknown analyzers",
		Run: runAllowJustify,
	}
}

func runAllowJustify(p *Package) []Diagnostic {
	known := knownChecks()
	var out []Diagnostic
	for _, spec := range p.allows() {
		if len(spec.checks) == 0 {
			out = append(out, diag(p, spec.comment, "allowjustify",
				"//%s directive names no analyzer; write //%s <check> <why this is safe>",
				AllowDirective, AllowDirective))
			continue
		}
		for _, check := range spec.checks {
			if !known[check] {
				out = append(out, diag(p, spec.comment, "allowjustify",
					"//%s names unknown analyzer %q, so it suppresses nothing (try distlint -list)",
					AllowDirective, check))
			}
		}
		if spec.justification == "" {
			out = append(out, diag(p, spec.comment, "allowjustify",
				"suppression without a justification; //%s %s must end with why the finding is safe",
				AllowDirective, spec.checks[0]))
		}
	}
	return out
}
