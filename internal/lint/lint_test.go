package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata package under a chosen import path
// (the path decides which scope rules apply, exactly as for real packages).
func loadFixture(t *testing.T, loader *Loader, dir, importPath string) *Package {
	t.Helper()
	// Absolute dir, as the real driver passes: position filenames must be
	// absolute for the JSON report's module-relative paths to resolve.
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	p, err := loader.LoadDir(abs, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return p
}

// fmtDiag renders a diagnostic as "file:line:col check" with the filename
// reduced to its base, the shape the expectation tables use.
func fmtDiag(d Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check)
}

// unsuppressed runs the analyzers and keeps the findings that fail a run.
func unsuppressed(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, d := range RunAll(pkgs, analyzers) {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// fixtureSuite is the suite for fixtures that exercise other analyzers:
// testonly judges a package against the whole module, so every exported
// helper of such a fixture would read as unused.
func fixtureSuite(t *testing.T) []*Analyzer {
	t.Helper()
	suite, err := Select(Analyzers(), nil, []string{"testonly"})
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestAnalyzersOnFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}

	tests := []struct {
		name      string
		dir       string
		path      string // import path assigned to the fixture (controls scoping)
		analyzers []*Analyzer
		want      []string
	}{
		{
			name: "maporder",
			dir:  "maporder",
			path: "distlap/internal/lintfixture/maporder",
			want: []string{
				"a.go:10:2 maporder",
				"a.go:41:2 maporder",
				"a.go:100:2 maporder",
			},
		},
		{
			// The blanket time.Now ban moved to walltime; seededrand keeps
			// the global-source and clock-seed rules. Both fire on the
			// wall-clock seed (entropy source + clock read).
			name: "seededrand",
			dir:  "seededrand",
			path: "distlap/internal/lintfixture/seededrand",
			want: []string{
				"a.go:12:9 seededrand",
				"a.go:17:2 seededrand",
				"a.go:22:33 seededrand",
				"a.go:22:33 walltime",
				"a.go:32:9 walltime",
			},
		},
		{
			name: "seedderive",
			dir:  "seedderive",
			path: "distlap/internal/lintfixture/seedderive",
			want: []string{
				"a.go:8:7 seedderive",
				"a.go:9:8 seedderive",
				"a.go:10:2 seedderive",
				"a.go:12:7 seedderive",
			},
		},
		{
			name: "metricsintegrity",
			dir:  "metricsintegrity",
			path: "distlap/internal/lintfixture/metricsintegrity",
			want: []string{
				"a.go:13:2 metricsintegrity",
				"a.go:14:2 metricsintegrity",
				"a.go:20:9 metricsintegrity",
				"a.go:25:2 metricsintegrity",
			},
		},
		{
			name: "tracephase",
			dir:  "tracephase",
			path: "distlap/internal/lintfixture/tracephase",
			want: []string{
				"a.go:25:2 tracephase",
				"a.go:30:2 tracephase",
				"a.go:38:3 tracephase",
			},
		},
		{
			// The allowed call at a.go:34 must be suppressed by its
			// directive; the handled/underscored forms produce nothing.
			// goroutine additionally flags the `go` statement at line 13.
			name: "errcheck",
			dir:  "errcheck",
			path: "distlap/internal/lintfixture/errcheck",
			want: []string{
				"a.go:11:2 errcheck",
				"a.go:12:2 errcheck",
				"a.go:13:2 errcheck",
				"a.go:13:2 goroutine",
			},
		},
		{
			// Multi-file package: diagnostics must surface from every file.
			name: "floateq multi-file",
			dir:  "floateq",
			path: "distlap/internal/linalg/lintfixture",
			want: []string{
				"a.go:7:9 floateq",
				"b.go:5:9 floateq",
				"b.go:10:9 floateq",
			},
		},
		{
			name: "wordtrunc",
			dir:  "wordtrunc",
			path: "distlap/internal/lintfixture/wordtrunc",
			want: []string{
				"a.go:9:9 wordtrunc",
				"a.go:14:9 wordtrunc",
				"a.go:19:9 wordtrunc",
			},
		},
		{
			name: "goroutine",
			dir:  "goroutine",
			path: "distlap/internal/lintfixture/goroutine",
			want: []string{
				"a.go:9:2 goroutine",
				"a.go:14:9 goroutine",
				"a.go:18:16 goroutine",
				"a.go:19:8 goroutine",
			},
		},
		{
			name: "walltime",
			dir:  "walltime",
			path: "distlap/internal/lintfixture/walltime",
			want: []string{
				"a.go:9:9 walltime",
				"a.go:14:9 walltime",
				"a.go:19:2 walltime",
			},
		},
		{
			// The unjustified, misspelled and bare directives are flagged;
			// the misspelled one also fails to suppress its seededrand
			// finding. The Meta case suppresses allowjustify itself with a
			// justified directive.
			name: "allowjustify",
			dir:  "allowjustify",
			path: "distlap/internal/lintfixture/allowjustify",
			want: []string{
				"a.go:10:2 allowjustify",
				"a.go:23:2 allowjustify",
				"a.go:24:9 seededrand",
				"a.go:29:2 allowjustify",
			},
		},
		{
			// The export only a_test.go calls, the self-recursive one, a
			// type named only by its method's receiver (with that method)
			// and a type named only by a blank interface assertion are
			// flagged. The export b.go calls, the heap.Interface and
			// fmt.Stringer methods, the method b.go calls through an
			// anonymous interface and the allowed export are not.
			name:      "testonly",
			dir:       "testonly",
			path:      "distlap/internal/lintfixture/testonly",
			analyzers: []*Analyzer{TestOnly()},
			want: []string{
				"a.go:9:6 testonly",
				"a.go:39:6 testonly",
				"a.go:48:6 testonly",
				"a.go:51:15 testonly",
				"a.go:56:6 testonly",
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := loadFixture(t, loader, tt.dir, tt.path)
			analyzers := tt.analyzers
			if analyzers == nil {
				analyzers = fixtureSuite(t)
			}
			got := unsuppressed([]*Package{p}, analyzers)
			if len(got) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(tt.want), got)
			}
			for i, d := range got {
				if fmtDiag(d) != tt.want[i] {
					t.Errorf("diagnostic %d: got %q, want %q (message: %s)", i, fmtDiag(d), tt.want[i], d.Message)
				}
			}
		})
	}

	// The allowed testonly export is flagged, and its directive suppresses
	// the finding with the directive's reason.
	p := loadFixture(t, loader, "testonly", "distlap/internal/lintfixture/testonly")
	var oracle []Diagnostic
	for _, d := range RunAll([]*Package{p}, []*Analyzer{TestOnly()}) {
		if d.Pos.Line == 36 {
			oracle = append(oracle, d)
		}
	}
	if len(oracle) != 1 || !oracle[0].Suppressed || !strings.HasPrefix(oracle[0].Justification, "fixture:") {
		t.Errorf("allowed export at a.go:36: got %+v, want one suppressed finding with its reason", oracle)
	}
}

// TestAllowSuppression checks //distlint:allow handling: same-line and
// preceding-line suppressions hold, a wrong check name does not suppress,
// and an unsuppressed violation in the same file still surfaces.
func TestAllowSuppression(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p := loadFixture(t, loader, "allow", "distlap/internal/lintfixture/allow")

	// Without suppression handling the analyzer itself sees all four.
	raw := SeededRand().Run(p)
	if len(raw) != 4 {
		t.Fatalf("analyzer alone: got %d diagnostics, want 4:\n%v", len(raw), raw)
	}

	// The runner drops the two suppressed ones.
	got := unsuppressed([]*Package{p}, fixtureSuite(t))
	want := []string{
		"a.go:15:9 seededrand", // no allow comment
		"a.go:26:9 seededrand", // allow names the wrong check
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(want), got)
	}
	for i, d := range got {
		if fmtDiag(d) != want[i] {
			t.Errorf("diagnostic %d: got %q, want %q", i, fmtDiag(d), want[i])
		}
	}
}

// TestRunAllSuppressionState checks that RunAll reports suppressed findings
// with their suppression state and directive justification, which the JSON
// report records.
func TestRunAllSuppressionState(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p := loadFixture(t, loader, "allow", "distlap/internal/lintfixture/allow")
	all := RunAll([]*Package{p}, []*Analyzer{SeededRand()})
	if len(all) != 4 {
		t.Fatalf("RunAll: got %d diagnostics, want 4:\n%v", len(all), all)
	}
	var suppressed []Diagnostic
	for _, d := range all {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 2 {
		t.Fatalf("got %d suppressed diagnostics, want 2:\n%v", len(suppressed), all)
	}
	for _, d := range suppressed {
		if d.Justification == "" || !strings.Contains(d.Justification, "fixture") {
			t.Errorf("suppressed diagnostic %s: justification %q not captured", fmtDiag(d), d.Justification)
		}
	}
}

// TestScopingByImportPath checks that analyzers keyed to package paths stay
// silent outside their scope.
func TestScopingByImportPath(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	cases := []struct {
		name, dir, path string
		analyzer        *Analyzer
	}{
		{"floateq outside numeric packages", "floateq", "distlap/cmd/lintfixturefloat", FloatEq()},
		{"maporder outside internal", "maporder", "distlap/cmd/lintfixturemap", MapOrder()},
		{"errcheck outside internal", "errcheck", "distlap/cmd/lintfixtureerr", ErrCheck()},
		{"wordtrunc outside internal", "wordtrunc", "distlap/cmd/lintfixtureword", WordTrunc()},
		{"goroutine in experiments pool", "goroutine", "distlap/internal/experiments/lintfixture", Goroutine()},
		{"goroutine in simtrace", "goroutine", "distlap/internal/simtrace/lintfixture", Goroutine()},
		{"walltime in experiments harness", "walltime", "distlap/internal/experiments/lintfixture2", WallTime()},
		{"walltime outside internal", "walltime", "distlap/cmd/lintfixturetime", WallTime()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := loadFixture(t, loader, c.dir, c.path)
			if got := c.analyzer.Run(p); len(got) != 0 {
				t.Errorf("%s: got %d diagnostics, want 0:\n%v", c.name, len(got), got)
			}
		})
	}
}

// TestSelect checks the enable/disable analyzer filters.
func TestSelect(t *testing.T) {
	all := Analyzers()
	if len(all) != 12 {
		t.Fatalf("suite has %d analyzers, want 12", len(all))
	}
	got, err := Select(all, []string{"maporder", "wordtrunc"}, nil)
	if err != nil || len(got) != 2 || got[0].Name != "maporder" || got[1].Name != "wordtrunc" {
		t.Errorf("enable filter: got %v, %v", got, err)
	}
	got, err = Select(all, nil, []string{"errcheck"})
	if err != nil || len(got) != len(all)-1 {
		t.Errorf("disable filter: got %d analyzers, %v", len(got), err)
	}
	for _, a := range got {
		if a.Name == "errcheck" {
			t.Errorf("disable filter kept errcheck")
		}
	}
	if _, err = Select(all, []string{"nosuch"}, nil); err == nil {
		t.Errorf("enable filter accepted unknown analyzer")
	}
	if _, err = Select(all, nil, []string{"nosuch"}); err == nil {
		t.Errorf("disable filter accepted unknown analyzer")
	}
}

// TestReportByteStable pins the machine-readable report: two fresh loads of
// the same fixture must marshal to identical bytes, file paths are
// module-relative slash paths, and suppressed findings carry their state
// and justification.
func TestReportByteStable(t *testing.T) {
	build := func() []byte {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		p := loadFixture(t, loader, "allow", "distlap/internal/lintfixture/allow")
		suite := fixtureSuite(t)
		r := BuildReport(loader.ModulePath, loader.Root, suite, 1, RunAll([]*Package{p}, suite))
		b, err := r.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		return b
	}
	first, second := build(), build()
	if !bytes.Equal(first, second) {
		t.Fatalf("report bytes differ across identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	s := string(first)
	for _, want := range []string{
		`"version": 2`,
		`"module": "distlap"`,
		`"file": "internal/lint/testdata/allow/a.go"`,
		`"suppressed": true`,
		`"justification": "fixture: demonstrates a justified suppression"`,
		`"analyzer": "seededrand"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, `"severity"`) {
		t.Errorf("report still carries severities:\n%s", s)
	}
	if strings.Contains(s, `"file": "/`) || strings.Contains(s, `\\`) {
		t.Errorf("report leaks absolute or backslashed paths:\n%s", s)
	}
}

// TestAllowParsing pins the directive grammar corner cases.
func TestAllowParsing(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		checks []string
		why    string
	}{
		{"// not a directive", false, nil, ""},
		{"//distlint:allow maporder proven commutative", true, []string{"maporder"}, "proven commutative"},
		{"//distlint:allow maporder,floateq both safe here", true, []string{"maporder", "floateq"}, "both safe here"},
		{"//distlint:allow maporder", true, []string{"maporder"}, ""},
		{"//distlint:allow", true, nil, ""},
		{"//  distlint:allow errcheck   padded   spacing  ", true, []string{"errcheck"}, "padded   spacing"},
	}
	for _, c := range cases {
		spec, ok := parseAllow(&ast.Comment{Text: c.text})
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(spec.checks) != len(c.checks) {
			t.Errorf("%q: checks %v, want %v", c.text, spec.checks, c.checks)
			continue
		}
		for i := range c.checks {
			if spec.checks[i] != c.checks[i] {
				t.Errorf("%q: checks %v, want %v", c.text, spec.checks, c.checks)
			}
		}
		if spec.justification != c.why {
			t.Errorf("%q: justification %q, want %q", c.text, spec.justification, c.why)
		}
	}
}

// TestRepoIsClean is the self-test the CI gate relies on: the whole module
// must lint clean under all twelve analyzers (true positives fixed,
// justified findings suppressed). The walk must reach benchmark/, a module
// of its own: testonly counts its references as uses.
func TestRepoIsClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Expand(loader.Root, []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	pkgs, err := loader.Load(paths)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("expected to load the whole module, got only %d packages", len(pkgs))
	}
	if !slices.Contains(paths, loader.ModulePath+"/benchmark") {
		t.Fatalf("the module walk missed benchmark/: %v", paths)
	}
	for _, d := range unsuppressed(pkgs, Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestBoundcheckBuildIsClean lints the module as the boundcheck build
// compiles it: congest's checked scheduling mode (boundcheck.go) replaces
// its no-op twin, which the default build's run never analyzes, and must
// lint clean too.
func TestBoundcheckBuildIsClean(t *testing.T) {
	loader, err := NewLoader(".", "boundcheck")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Expand(loader.Root, []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	pkgs, err := loader.Load(paths)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var files []string
	for _, p := range pkgs {
		if p.Path == loader.ModulePath+"/internal/congest" {
			for _, f := range p.Files {
				files = append(files, filepath.Base(p.Fset.Position(f.Pos()).Filename))
			}
		}
	}
	if !slices.Contains(files, "boundcheck.go") || slices.Contains(files, "boundcheck_off.go") {
		t.Fatalf("the boundcheck build of internal/congest loaded %v", files)
	}
	for _, d := range unsuppressed(pkgs, Analyzers()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
