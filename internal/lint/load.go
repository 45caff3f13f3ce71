package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package (non-test files only — the
// contracts guard shipped code; tests exercise them).
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	suppressions *suppressionSet
	decls        map[*types.Func]*ast.FuncDecl // built on first funcDecl call
}

// funcDecl returns the declaration of fn when it is a function or method
// declared in this package, else nil.
func (p *Package) funcDecl(fn *types.Func) *ast.FuncDecl {
	if p.decls == nil {
		p.decls = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						p.decls[obj] = fd
					}
				}
			}
		}
	}
	return p.decls[fn.Origin()]
}

// Module locates the enclosing Go module.
type Module struct {
	Root string // absolute directory containing go.mod
	Path string // module path declared in go.mod
}

// FindModule walks up from dir to the first go.mod.
func FindModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return &Module{Root: d, Path: strings.TrimSpace(rest)}, nil
				}
			}
			return nil, fmt.Errorf("%s/go.mod: no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return nil, fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// Loader parses and type-checks module packages with a self-contained
// importer: module-internal imports resolve straight to their directories,
// everything else (the stdlib) goes through the compiler-independent
// source importer — no export data, no network, no x/tools.
type Loader struct {
	Module *Module
	Fset   *token.FileSet

	pkgs  map[string]*Package // by import path
	loads map[string]bool     // cycle guard
}

// The standard library is type-checked from source once per process: every
// Loader shares one source importer and its file set, so the CLI tests,
// the fixture tests and the repo gate in one test binary pay for net/http
// and friends once. The importer itself is not safe for concurrent use;
// stdMu serializes it.
var (
	stdFset = token.NewFileSet()
	stdMu   sync.Mutex
	stdImp  = importer.ForCompiler(stdFset, "source", nil)
)

func importStd(path string) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}

// NewLoader returns a loader rooted at mod.
func NewLoader(mod *Module) *Loader {
	return &Loader{
		Module: mod,
		Fset:   stdFset,
		pkgs:   map[string]*Package{},
		loads:  map[string]bool{},
	}
}

// Import implements types.Importer over module-internal and stdlib paths.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module.Path || strings.HasPrefix(path, l.Module.Path+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return importStd(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module.Path), "/")
	return filepath.Join(l.Module.Root, filepath.FromSlash(rel))
}

// loadPath loads a module-internal package by import path, memoized.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loads[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loads[path] = true
	defer func() { l.loads[path] = false }()
	pkg, err := l.LoadDir(l.dirFor(path), path)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files are skipped; files are loaded in sorted order so
// positions, and therefore findings, are deterministic.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: type errors: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath:   importPath,
		Dir:          dir,
		Fset:         l.Fset,
		Files:        files,
		Types:        tpkg,
		Info:         info,
		suppressions: collectSuppressions(l.Fset, files),
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// ExpandPatterns resolves CLI-style package patterns ("./...", "./cmd/...",
// "internal/noc") against the module into package directories, sorted.
// Directories named testdata, hidden directories, and directories with no
// non-test Go files are skipped during ... expansion.
func (l *Loader) ExpandPatterns(patterns []string, cwd string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
				continue
			}
			return nil, fmt.Errorf("package pattern %q: no Go files in %s", pat, base)
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// ImportPathFor maps a directory inside the module to its import path.
func (l *Loader) ImportPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Module.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.Module.Root)
	}
	if rel == "." {
		return l.Module.Path, nil
	}
	return l.Module.Path + "/" + filepath.ToSlash(rel), nil
}

// LoadPatterns expands patterns and loads every matched package.
func (l *Loader) LoadPatterns(patterns []string, cwd string) ([]*Package, error) {
	dirs, err := l.ExpandPatterns(patterns, cwd)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.ImportPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
