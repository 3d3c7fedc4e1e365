package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
)

// ReportVersion is the schema version of the machine-readable report. Bump
// it whenever a field changes meaning or goes away; additions are
// backward-compatible. Version 2 dropped the severity fields and the
// error/warning counts: every finding fails a run unless suppressed.
const ReportVersion = 2

// Report is the machine-readable result of a lint run: the diagnostic
// stream with suppression state, plus enough metadata to interpret it
// without the source tree. Marshaling is byte-stable: struct field order is
// fixed, file paths are module-relative slash paths, and the findings are
// already position-sorted by RunAll, so two runs over the same tree produce
// identical bytes (pinned by TestReportByteStable and the cmd/distlint
// driver test).
type Report struct {
	Version   int              `json:"version"`
	Module    string           `json:"module"`
	Analyzers []ReportAnalyzer `json:"analyzers"`
	Findings  []ReportFinding  `json:"findings"`
	Summary   ReportSummary    `json:"summary"`
}

// ReportAnalyzer describes one analyzer that ran.
type ReportAnalyzer struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// ReportFinding is one diagnostic, suppressed or not.
type ReportFinding struct {
	Analyzer      string `json:"analyzer"`
	File          string `json:"file"` // module-relative, slash-separated
	Line          int    `json:"line"`
	Col           int    `json:"col"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

// ReportSummary aggregates the stream for quick gating.
type ReportSummary struct {
	Packages   int `json:"packages"`
	Findings   int `json:"findings"`   // unsuppressed
	Suppressed int `json:"suppressed"` // suppressed by a directive
}

// BuildReport assembles the report for a RunAll diagnostic stream. root is
// the module root directory: absolute file positions under it are rewritten
// module-relative (and to forward slashes) so the report is stable across
// checkouts and machines.
func BuildReport(modulePath, root string, analyzers []*Analyzer, packages int, diags []Diagnostic) *Report {
	r := &Report{
		Version: ReportVersion,
		Module:  modulePath,
		Summary: ReportSummary{Packages: packages},
	}
	r.Analyzers = make([]ReportAnalyzer, 0, len(analyzers))
	for _, a := range analyzers {
		r.Analyzers = append(r.Analyzers, ReportAnalyzer{Name: a.Name, Doc: a.Doc})
	}
	r.Findings = make([]ReportFinding, 0, len(diags))
	for _, d := range diags {
		r.Findings = append(r.Findings, ReportFinding{
			Analyzer:      d.Check,
			File:          moduleRelative(root, d.Pos.Filename),
			Line:          d.Pos.Line,
			Col:           d.Pos.Column,
			Message:       d.Message,
			Suppressed:    d.Suppressed,
			Justification: d.Justification,
		})
		if d.Suppressed {
			r.Summary.Suppressed++
		} else {
			r.Summary.Findings++
		}
	}
	return r
}

// Marshal renders the report as indented JSON with a trailing newline.
// encoding/json emits struct fields in declaration order, so the bytes are
// a pure function of the report value.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// moduleRelative rewrites file under root as a slash-separated relative
// path; files outside root (stdlib positions should never appear, but be
// safe) pass through unchanged.
func moduleRelative(root, file string) string {
	if root == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(root, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
