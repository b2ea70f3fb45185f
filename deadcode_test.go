package t3

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"testing"
)

// TestNoUnusedIdentifiers type-checks every package of the module (bench/,
// a module of its own, excepted) together with its test files, and fails on
// any unexported package-level identifier that nothing references, tests
// included. External test packages (package p_test) are checked too, the
// way `go test` builds them. Exported names are out of its reach: internal
// packages export for one another.
func TestNoUnusedIdentifiers(t *testing.T) {
	dirs, _ := modulePackages(t)
	mod := map[string]*build.Package{}
	for dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		mod[path.Join("t3", dir)] = bp
	}
	fset := token.NewFileSet()
	plain := &moduleImporter{fset: fset, mod: mod, pkgs: map[string]*types.Package{},
		next: importer.ForCompiler(fset, "source", nil)}
	for _, p := range slices.Sorted(maps.Keys(mod)) {
		bp := mod[p]
		pkg := checkUnused(t, fset, plain, p, bp.Dir, append(bp.GoFiles, bp.TestGoFiles...))
		if len(bp.XTestGoFiles) > 0 {
			v := &moduleImporter{fset: fset, mod: mod, pkgs: map[string]*types.Package{p: pkg},
				next: plain, under: p, deps: map[string]bool{}}
			checkUnused(t, fset, v, p+"_test", bp.Dir, bp.XTestGoFiles)
		}
	}
}

// checkUnused type-checks one package from the named files of dir and
// reports each of its unexported package-level objects that no identifier
// uses.
func checkUnused(t *testing.T, fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) *types.Package {
	t.Helper()
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", importPath, err)
	}
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[obj] = true
	}
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if obj.Exported() || used[obj] || name == "init" || name == "main" && pkg.Name() == "main" {
			continue
		}
		t.Errorf("%s: %s is declared and never used", fset.Position(obj.Pos()), name)
	}
	return pkg
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleImporter type-checks the module's packages from source, once each,
// and leaves every other import to next. A test variant (under set) imports
// as `go test` builds the external test package of under: under is the
// package extended by its in-package test files, each module package that
// imports under (directly or not) is re-checked against that form, and the
// rest comes from next.
type moduleImporter struct {
	fset  *token.FileSet
	mod   map[string]*build.Package
	pkgs  map[string]*types.Package
	next  types.Importer
	under string
	deps  map[string]bool // memo of dependsOnUnder
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	bp := m.mod[p]
	if bp == nil || m.under != "" && !m.dependsOnUnder(p) {
		return m.next.Import(p)
	}
	files, err := parseFiles(m.fset, bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, files, nil)
	m.pkgs[p] = pkg
	return pkg, err
}

// dependsOnUnder reports whether module package p imports under, directly
// or through other module packages.
func (m *moduleImporter) dependsOnUnder(p string) bool {
	if d, ok := m.deps[p]; ok {
		return d
	}
	d := false
	if bp := m.mod[p]; bp != nil {
		for _, q := range bp.Imports {
			if q == m.under || m.dependsOnUnder(q) {
				d = true
				break
			}
		}
	}
	m.deps[p] = d
	return d
}
