package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked (non-test) package of the
// module under analysis.
type Package struct {
	Path  string // import path, e.g. "distlap/internal/shortcut"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info

	loader     *Loader      // the loader that type-checked it (testonly reads the module through it)
	allowSpecs *[]allowSpec // memoized //distlint:allow directives (see allows)
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports are resolved recursively from
// source, standard-library imports through go/importer's "source" compiler
// (which also type-checks from $GOROOT/src — no export data needed).
type Loader struct {
	Root       string // module root (directory containing go.mod)
	ModulePath string // module path from go.mod

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // keyed by import path
	busy map[string]bool     // import-cycle guard

	module    *refIndex // memoized by moduleRefs
	moduleErr error
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// sharedFset and sharedStd cache type-checked standard-library packages
// across Loader instances. The "source" importer type-checks each stdlib
// package from $GOROOT/src on first Import (the dominant cost of a lint
// run) and memoizes it internally, so every Loader after the first gets
// the stdlib for free. The importer records positions into its FileSet, so
// the set is shared along with it; module files parsed by different
// Loaders land in the same set, which is harmless — positions stay valid
// per file. Loaders were never goroutine-safe, and sharing changes
// nothing there: all callers (cmd/distlint, the lint tests) run loads
// sequentially.
var (
	sharedFset = token.NewFileSet()
	sharedStd  = importer.ForCompiler(sharedFset, "source", nil)
)

// NewLoader returns a loader for the module rooted at or above dir.
// Loaders share one process-wide standard-library importer (see
// sharedStd), so constructing a second loader is cheap.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	return &Loader{
		Root:       root,
		ModulePath: string(m[1]),
		fset:       sharedFset,
		std:        sharedStd,
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

// Import implements types.Importer: module-internal paths load from source,
// everything else falls back to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the non-test package in dir, as the
// default build compiles it, under the given import path. Results are
// cached by import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Only the files the default build compiles: a file behind a build
		// tag (congest's boundcheck mode) would redeclare its default twin.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// Expand resolves package patterns relative to the module root into import
// paths, sorted. A pattern is either a directory (absolute, or relative to
// base) or such a directory followed by "/..." for a recursive walk.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, as are directories with no non-test Go files.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		path, err := l.importPathOf(dir)
		if err != nil {
			return err
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if !recursive {
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				return add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) importPathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load loads every package named by the import paths (as returned by Expand).
func (l *Loader) Load(paths []string) ([]*Package, error) {
	var pkgs []*Package
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// moduleRefs loads every package of the module (Expand of "./..." from the
// root, benchmark/ included) and indexes what their non-test files
// reference. It runs once per loader, whatever packages a run names.
func (l *Loader) moduleRefs() (*refIndex, error) {
	if l.module != nil || l.moduleErr != nil {
		return l.module, l.moduleErr
	}
	paths, err := l.Expand(l.Root, []string{"./..."})
	if err != nil {
		l.moduleErr = err
		return nil, err
	}
	pkgs, err := l.Load(paths)
	if err != nil {
		l.moduleErr = err
		return nil, err
	}
	x := newRefIndex()
	for _, p := range pkgs {
		x.add(p)
	}
	l.module = x
	return x, nil
}
