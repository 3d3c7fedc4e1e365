package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"distlap/internal/lint"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 12 {
		t.Errorf("-list printed %d analyzers, want 12:\n%s", n, out.String())
	}
	for _, name := range []string{
		"maporder", "seededrand", "seedderive", "metricsintegrity", "floateq",
		"tracephase", "errcheck", "wordtrunc", "allowjustify", "goroutine", "walltime",
		"testonly",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "nosuch", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if code := run([]string{"-disable", "nosuch", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("unknown -disable analyzer exited %d, want 2", code)
	}
}

func TestFindingsExitCode(t *testing.T) {
	// The maporder fixture contains seeded violations; pointing the driver
	// at it must exit 1 and report positions.
	var out, errb bytes.Buffer
	code := run([]string{"../../internal/lint/testdata/maporder"}, &out, &errb)
	if code != 1 {
		t.Fatalf("fixture run exited %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "a.go:10:2: [maporder]") {
		t.Errorf("missing expected finding in output:\n%s", out.String())
	}
}

func TestDisableSilencesFixture(t *testing.T) {
	// Disabling the only analyzer the fixture violates must turn the run
	// clean (the fixture package trips nothing else).
	var out, errb bytes.Buffer
	code := run([]string{"-disable", "maporder", "../../internal/lint/testdata/maporder"}, &out, &errb)
	if code != 0 {
		t.Fatalf("disabled run exited %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

func TestJSONReportByteStable(t *testing.T) {
	// Two identical -json runs must produce identical bytes — CI archives
	// the report, so nondeterministic output would break artifact diffing.
	runJSON := func() (string, int) {
		var out, errb bytes.Buffer
		code := run([]string{"-json", "../../internal/lint/testdata/errcheck"}, &out, &errb)
		return out.String(), code
	}
	first, code := runJSON()
	if code != 1 {
		t.Fatalf("-json fixture run exited %d, want 1", code)
	}
	second, _ := runJSON()
	if first != second {
		t.Fatalf("-json output differs across identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	var report struct {
		Version   int `json:"version"`
		Analyzers []struct {
			Name string `json:"name"`
		} `json:"analyzers"`
		Findings []struct {
			Analyzer      string `json:"analyzer"`
			File          string `json:"file"`
			Line          int    `json:"line"`
			Suppressed    bool   `json:"suppressed"`
			Justification string `json:"justification"`
		} `json:"findings"`
		Summary struct {
			Findings   int `json:"findings"`
			Suppressed int `json:"suppressed"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(first), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, first)
	}
	if report.Version != lint.ReportVersion {
		t.Errorf("report version %d, want %d", report.Version, lint.ReportVersion)
	}
	if len(report.Analyzers) != 12 {
		t.Errorf("report lists %d analyzers, want 12", len(report.Analyzers))
	}
	if strings.Contains(first, `"severity"`) {
		t.Errorf("report still carries severities:\n%s", first)
	}
	var suppressed, unsuppressed, errcheckHits int
	for _, f := range report.Findings {
		if !strings.HasPrefix(f.File, "internal/lint/testdata/errcheck/") {
			t.Errorf("finding file %q is not module-relative", f.File)
		}
		if f.Suppressed {
			suppressed++
			if f.Justification == "" {
				t.Errorf("suppressed finding at %s:%d lacks its justification", f.File, f.Line)
			}
		} else {
			unsuppressed++
		}
		if f.Analyzer == "errcheck" {
			errcheckHits++
		}
	}
	if suppressed == 0 || suppressed != report.Summary.Suppressed {
		t.Errorf("suppressed findings: counted %d, summary says %d", suppressed, report.Summary.Suppressed)
	}
	if errcheckHits == 0 || unsuppressed != report.Summary.Findings {
		t.Errorf("expected errcheck findings and a summary counting the %d unsuppressed ones, got %d / %d",
			unsuppressed, errcheckHits, report.Summary.Findings)
	}
}

func TestCleanExitCode(t *testing.T) {
	// The driver's own package is clean.
	var out, errb bytes.Buffer
	if code := run([]string{"."}, &out, &errb); code != 0 {
		t.Fatalf("clean run exited %d:\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestTestOnlyVerdictIgnoresPatterns checks that testonly judges a package
// against the whole module whatever patterns the run names: linting
// internal/graph alone reports exactly the internal/graph findings, with
// their suppression state, that linting the whole module does.
func TestTestOnlyVerdictIgnoresPatterns(t *testing.T) {
	graphFindings := func(pattern string) []string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run([]string{"-json", "-checks", "testonly", pattern}, &out, &errb); code != 0 {
			t.Fatalf("%s exited %d:\n%s%s", pattern, code, out.String(), errb.String())
		}
		var report struct {
			Findings []struct {
				File          string `json:"file"`
				Line          int    `json:"line"`
				Message       string `json:"message"`
				Suppressed    bool   `json:"suppressed"`
				Justification string `json:"justification"`
			} `json:"findings"`
		}
		if err := json.Unmarshal(out.Bytes(), &report); err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		var got []string
		for _, f := range report.Findings {
			if strings.HasPrefix(f.File, "internal/graph/") {
				got = append(got, fmt.Sprintf("%s:%d %s %v %s", f.File, f.Line, f.Message, f.Suppressed, f.Justification))
			}
		}
		return got
	}
	one, all := graphFindings("../../internal/graph"), graphFindings("../../...")
	if len(one) == 0 {
		t.Fatal("internal/graph has no testonly findings, suppressed or not; the comparison proves nothing")
	}
	if strings.Join(one, "\n") != strings.Join(all, "\n") {
		t.Errorf("./internal/graph alone:\n%s\nthe whole module:\n%s", strings.Join(one, "\n"), strings.Join(all, "\n"))
	}
}
