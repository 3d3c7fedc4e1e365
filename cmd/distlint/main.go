// Command distlint runs the repo-specific static-analysis suite
// (internal/lint) over the module: determinism, model-soundness,
// concurrency and metrics-integrity invariants that ordinary go vet cannot
// express.
//
// Usage:
//
//	go run ./cmd/distlint ./...
//	go run ./cmd/distlint -checks maporder,floateq ./internal/...
//	go run ./cmd/distlint -disable errcheck ./...
//	go run ./cmd/distlint -json ./... > distlint.json
//	go run ./cmd/distlint -list
//
// All analyzers share one parse + type-check pass per package. -checks
// enables only the named analyzers, and -disable removes names from
// whatever is enabled.
//
// -json writes a machine-readable report to stdout instead of text lines:
// a versioned schema listing the analyzers that ran and every finding —
// suppressed ones included, with their suppression state and the
// //distlint:allow justification — with module-relative slash paths and a
// summary of the counts. The bytes are stable: identical inputs produce an
// identical report, so CI can archive and diff it.
//
// Exit status is 0 when no unsuppressed finding remains, 1 when one does,
// 2 on usage or load errors. Findings are suppressed line-by-line with
// //distlint:allow <check> <justification> (see internal/lint; the
// justification is mandatory — allowjustify flags bare directives).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"distlap/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// splitList splits a comma-separated flag value into trimmed non-empty names.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available analyzers and exit")
	checks := fs.String("checks", "", "comma-separated subset of analyzers to run (default all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	jsonOut := fs.Bool("json", false, "write a machine-readable report to stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.Select(analyzers, splitList(*checks), splitList(*disable))
	if err != nil {
		fmt.Fprintf(stderr, "distlint: %v (try -list)\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "distlint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "distlint: %v\n", err)
		return 2
	}
	paths, err := loader.Expand(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "distlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(paths)
	if err != nil {
		fmt.Fprintf(stderr, "distlint: %v\n", err)
		return 2
	}

	// One pass over every package; suppressed findings are kept for the
	// JSON report (text mode hides them). The exit code reflects only
	// unsuppressed ones.
	diags := lint.RunAll(pkgs, analyzers)
	failing := 0
	for _, d := range diags {
		if !d.Suppressed {
			failing++
		}
	}

	if *jsonOut {
		report := lint.BuildReport(loader.ModulePath, loader.Root, analyzers, len(pkgs), diags)
		b, err := report.Marshal()
		if err != nil {
			fmt.Fprintf(stderr, "distlint: %v\n", err)
			return 2
		}
		if _, err := stdout.Write(b); err != nil {
			fmt.Fprintf(stderr, "distlint: %v\n", err)
			return 2
		}
		if failing > 0 {
			return 1
		}
		return 0
	}

	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n",
			pos.Filename, pos.Line, pos.Column, d.Check, d.Message)
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "distlint: %d finding(s) in %d package(s)\n", failing, len(pkgs))
		return 1
	}
	return 0
}
