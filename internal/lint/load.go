package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (module-relative for repo
	// packages, fixture-root-relative for testdata packages).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds any type-checking problems. Analysis still runs
	// on a partially checked package, but the driver treats these as
	// fatal so a broken tree cannot slide through as "no findings".
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module using only
// the standard library: repo-internal imports resolve against the
// module tree, fixture imports against FixtureRoot, and everything else
// against the standard library, which all Loaders share. Each loaded
// package includes its _test.go files; dependencies are compiled
// without them, as go/build does.
type Loader struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// ModulePath is the module's import-path prefix from go.mod.
	ModulePath string
	// FixtureRoot, when set, resolves import paths and load patterns
	// under a testdata/src-style tree before consulting the module.
	FixtureRoot string

	imp *moduleImporter
}

// loadFset positions every file any Loader parses, so that packages
// from different Loaders can share the standard library's types.
var loadFset = token.NewFileSet()

// stdlib type-checks standard-library imports from GOROOT source once
// per process: every Loader in a test binary, and every run of the
// driver, pays for net/http and its dependencies once.
var stdlib = &stdImporter{pkgs: make(map[string]*types.Package)}

// stdImporter type-checks GOROOT packages, declarations only, as the
// go/importer "source" importer does, but resolves each import path
// with go/build once instead of on every import of it. Inside GOROOT a
// path names one package, vendored ones included, so the path is the
// key. Files that import "C" are left out, as under CGO_ENABLED=0: the
// analyzers need the Go API only, and it is the same either way. One
// mutex serializes every import, so Loaders on different goroutines
// never check a package twice.
type stdImporter struct {
	mu   sync.Mutex
	pkgs map[string]*types.Package // guarded by mu; nil while being checked
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.importLocked(path, "")
}

func (s *stdImporter) importLocked(path, dir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := s.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return pkg, nil
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	bp, err := ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(loadFset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution); err != nil {
			return nil, err
		}
	}
	s.pkgs[path] = nil
	conf := types.Config{
		IgnoreFuncBodies: true,
		Importer:         importerFrom(s.importLocked),
		Sizes:            types.SizesFor("gc", ctxt.GOARCH),
	}
	pkg, err := conf.Check(bp.ImportPath, loadFset, files, nil)
	if err != nil {
		delete(s.pkgs, path)
		return nil, fmt.Errorf("lint: type-checking %q: %w", path, err)
	}
	s.pkgs[path] = pkg
	return pkg, nil
}

// importerFrom adapts an import function to types.ImporterFrom, whose
// directory argument resolves vendored imports.
type importerFrom func(path, dir string) (*types.Package, error)

func (f importerFrom) Import(path string) (*types.Package, error) { return f(path, "") }

func (f importerFrom) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}

func (l *Loader) init() {
	if l.imp == nil {
		l.imp = &moduleImporter{
			loader:     l,
			cache:      make(map[string]*types.Package),
			inProgress: make(map[string]bool),
		}
	}
}

// ModuleRoot walks upward from dir to the nearest go.mod and returns
// its directory and module path.
func ModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves patterns to package directories and returns the
// type-checked packages sorted by import path. A pattern is either a
// directory (absolute, or relative to the module root) or a directory
// followed by "/..." which walks its subtree. testdata, vendor and
// dot/underscore directories are skipped during walks.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !dirSet[dir] {
			dirSet[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = l.Dir
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.Dir, pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for _, dir := range dirs {
		loaded, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && goFileIncluded(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func goFileIncluded(name string) bool {
	return !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// pkgPathFor derives the import path of a directory from the module or
// fixture root it lives under.
func (l *Loader) pkgPathFor(dir string) (string, error) {
	if l.FixtureRoot != "" {
		if rel, err := filepath.Rel(l.FixtureRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel), nil
		}
	}
	rel, err := filepath.Rel(l.Dir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: directory %s is outside the module root %s", dir, l.Dir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the directory's Go files into compile files (no
// tests), in-package test files, and external (_test package) files.
func (l *Loader) parseDir(dir string) (compile, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || !goFileIncluded(name) {
			continue
		}
		f, perr := parser.ParseFile(loadFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			compile = append(compile, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return compile, inTest, extTest, nil
}

// loadDir type-checks one directory, yielding the package itself with
// its in-package test files plus, when present, its external test
// package.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	pkgPath, err := l.pkgPathFor(dir)
	if err != nil {
		return nil, err
	}
	compile, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(compile) == 0 && len(inTest) == 0 && len(extTest) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	var out []*Package
	files := append(compile, inTest...)
	if len(files) > 0 {
		pkg, err := l.check(l.imp, pkgPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if len(extTest) > 0 {
		imp := l.imp
		if len(inTest) > 0 && len(out) > 0 {
			// As the go tool does, check the external test package
			// against the package under test with its in-package test
			// files, which may export test-only names (export_test.go).
			imp = l.imp.variant(pkgPath, out[0].Types)
		}
		pkg, err := l.check(imp, pkgPath+"_test", extTest)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check runs the type checker over one file set.
func (l *Loader) check(imp types.Importer, pkgPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(pkgPath, loadFset, files, info)
	return &Package{
		Path:       pkgPath,
		Fset:       loadFset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}

// moduleImporter resolves imports for the type checker: module-internal
// and fixture paths from source (never including test files, matching
// how the go tool compiles dependencies), everything else through the
// shared stdlib importer.
type moduleImporter struct {
	loader     *Loader
	cache      map[string]*types.Package
	inProgress map[string]bool
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	dir, ok := m.dirFor(path)
	if !ok {
		return stdlib.Import(path)
	}
	if m.inProgress[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	m.inProgress[path] = true
	defer delete(m.inProgress, path)

	compile, _, _, err := m.loader.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(compile) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files for import %q in %s", path, dir)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, loadFset, compile, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking dependency %q: %w", path, err)
	}
	m.cache[path] = pkg
	return pkg, nil
}

// variant returns an importer that resolves path to pkg, a test
// variant of that package, and re-checks against it every module
// package that imports it, directly or not, so that the variant's
// types are the only ones an external test package sees. Packages
// that do not import path are shared with m.
func (m *moduleImporter) variant(path string, pkg *types.Package) *moduleImporter {
	v := &moduleImporter{
		loader:     m.loader,
		cache:      map[string]*types.Package{path: pkg},
		inProgress: make(map[string]bool),
	}
	for p, cached := range m.cache {
		if p != path && !importsPath(cached, path, map[*types.Package]bool{}) {
			v.cache[p] = cached
		}
	}
	return v
}

// importsPath reports whether pkg imports path, directly or not.
func importsPath(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return true
		}
		if !seen[imp] {
			seen[imp] = true
			if importsPath(imp, path, seen) {
				return true
			}
		}
	}
	return false
}

// dirFor maps an import path to a source directory, if it is one this
// loader owns.
func (m *moduleImporter) dirFor(path string) (string, bool) {
	l := m.loader
	if path == l.ModulePath {
		return l.Dir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.Dir, filepath.FromSlash(rest)), true
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
	}
	return "", false
}
