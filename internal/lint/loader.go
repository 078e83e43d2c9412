// Package lint implements tripoline-lint: a from-scratch static-analysis
// driver over the standard library's go/ast, go/parser, go/types and
// go/importer (no golang.org/x/tools dependency) that enforces the
// project's hand-maintained concurrency and lifecycle invariants.
//
// The paper's correctness argument (§4.3, Theorem 4.4) requires vertex
// functions to be monotonic and async-safe; in this codebase that
// contract is spread across idioms — CAS-min loops over shared value
// arrays, a drained-scratch-pool rule, ctx checks at superstep
// boundaries, sentinel error matching — none of which the Go compiler
// checks. The analyzers here certify them mechanically:
//
//   - atomicmix:   values updated via sync/atomic (or the parallel
//     helpers) must not also be accessed plainly where it races
//   - poolbalance: every sync.Pool acquisition must reach a Put (or the
//     documented `err == nil`-guarded cancel-drop) on all return paths
//   - ctxflow:     context discipline — no context.Background()/TODO()
//     outside commands and the Foo→FooCtx wrapper idiom, exported ...Ctx
//     functions must forward their ctx, no ctx stored in structs
//   - sentinelcmp: sentinel errors must be matched with errors.Is, not ==
//   - lockscope:   engine/core locks must not be held across calls that
//     can block indefinitely (channel ops, Wait, query entry points)
//   - refbalance:  every successful Flat.Retain() and every received
//     release-func must be discharged on all paths — released, returned,
//     or waived behind an `err != nil` guard — checked interprocedurally
//     via the per-function ownership summaries of summary.go
//   - goroleak:    every go statement that can block forever on a
//     channel op needs an escape edge (a ctx.Done() arm or a buffered
//     hand-off channel)
//
// Diagnostics print as "file:line:col: [analyzer] message"; a
// machine-readable -json mode and mandatory-reason
// "//lint:ignore analyzer reason" suppressions are supported by the
// driver (see lint.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string // import path (or a synthesized path for out-of-module dirs)
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module. Module-internal
// imports are resolved recursively from source; everything else (the
// standard library) goes through go/importer's source-mode importer, so
// the whole pipeline needs nothing but GOROOT sources — no export data,
// no go list subprocess, no third-party packages.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModDir  string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader prepares a loader for the module rooted at modDir (the
// directory holding go.mod).
func NewLoader(modDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	mp := modulePath(data)
	if mp == "" {
		return nil, fmt.Errorf("lint: no module line in %s", filepath.Join(modDir, "go.mod"))
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModPath: mp,
		ModDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// FindModuleRoot walks upward from dir looking for a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadAll loads every package in the module (skipping testdata, vendor,
// hidden and underscore directories, and _test.go files) in a
// deterministic order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir loads the single package in dir under the given import path
// (any module-internal imports it names load from the module). It is how
// the golden tests and the CLI's explicit-directory mode load testdata
// corpora that live outside the module's package tree.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(asPath, dir)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if sourceFile(e) {
			return true
		}
	}
	return false
}

func sourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// load parses and type-checks one package directory, memoized by import
// path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !sourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !defaultBuildIncludes(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// defaultBuildIncludes reports whether f's //go:build constraint (if
// any) is satisfied by the default build configuration — current
// GOOS/GOARCH, every go1.x release tag, and no custom tags. Files gated
// behind project tags (e.g. the tripoline_ledger refcount ledger) are
// skipped, and their !tag counterparts kept, exactly as `go build` with
// no -tags would select; without this, a tag-split pair of files would
// double-define its symbols and break type-checking.
func defaultBuildIncludes(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: keep the file, let vet complain
			}
			if !expr.Eval(defaultBuildTag) {
				return false
			}
		}
	}
	return true
}

// defaultBuildTag is the tag-truth function of the default build: OS,
// architecture, the unix umbrella tag, and release tags are true;
// custom tags are false.
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly":
			return true
		}
		return false
	}
	return tag == "go1" || strings.HasPrefix(tag, "go1.")
}

// loaderImporter adapts Loader to types.Importer: module-internal paths
// recurse into the loader, everything else uses the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.load(path, filepath.Join(l.ModDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, l.ModDir, 0)
}
