package lint

import (
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestLoadTestOnlyImportCycle: cyclea's *external test* package imports
// cycleb, which imports cyclea. The go tool compiles dependencies
// without their test files, so this is not a cycle — and the loader
// must agree, yielding both the compile package and the _test package
// without errors.
func TestLoadTestOnlyImportCycle(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, "cyclea"))
	if err != nil {
		t.Fatalf("loading cyclea: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: unexpected type error: %v", pkg.Path, terr)
		}
	}
	want := []string{"cyclea", "cyclea_test"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Fatalf("loaded packages %v, want %v", paths, want)
	}
}

// TestLoadExternalTestSeesExportTest: an external test package sees
// the names an in-package export_test.go adds, with the same types
// whether it reaches the package directly or through a dependency.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, "exportvar"))
	if err != nil {
		t.Fatalf("loading exportvar: %v", err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: unexpected type error: %v", pkg.Path, terr)
		}
	}
	if want := "exportvar,exportvar_test"; strings.Join(paths, ",") != want {
		t.Fatalf("loaded packages %v, want %s", paths, want)
	}
}

// TestLoadRealImportCycle: a compile-time cycle must surface as a
// cycle-naming type error, not a hang or a stack overflow.
func TestLoadRealImportCycle(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, "badcyclea"))
	if err != nil {
		t.Fatalf("Load itself should succeed and report the cycle as a type error, got: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	found := false
	for _, terr := range pkgs[0].TypeErrors {
		if strings.Contains(terr.Error(), "cycle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("type errors do not mention the import cycle: %v", pkgs[0].TypeErrors)
	}
}

// TestLoadGenerics: parameterized code must type-check cleanly with
// instantiations recorded, and the whole analyzer suite (including the
// flow-backed ones, which key summaries by generic origin) must run
// over it without findings.
func TestLoadGenerics(t *testing.T) {
	loader := fixtureLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, "generics"))
	if err != nil {
		t.Fatalf("loading generics: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	for _, terr := range pkg.TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	if len(pkg.Info.Instances) == 0 {
		t.Fatal("no generic instantiations recorded in types.Info.Instances")
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// importOf returns the package pkgs[0] imports as path, or nil.
func importOf(pkgs []*Package, path string) *types.Package {
	for _, imp := range pkgs[0].Types.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}

// TestLoadersShareStdlib: the standard library is type-checked once per
// process, so two Loaders see the identical package for an import from
// outside the module.
func TestLoadersShareStdlib(t *testing.T) {
	var got [2]*types.Package
	for i := range got {
		loader := newFixtureLoader(t)
		pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, "ctxflow"))
		if err != nil {
			t.Fatalf("loader %d: %v", i, err)
		}
		if got[i] = importOf(pkgs, "context"); got[i] == nil {
			t.Fatalf("loader %d: ctxflow does not import context", i)
		}
	}
	if got[0] != got[1] {
		t.Fatal("two Loaders type-checked \"context\" separately")
	}
}

// TestLoadersRunConcurrently: Loaders on different goroutines import
// new standard-library packages through the one shared importer at the
// same time; under -race this checks that the importer is serialized.
func TestLoadersRunConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for _, fx := range []struct{ fixture, path string }{
		{"stdusera", "container/list"},
		{"stduserb", "container/ring"},
	} {
		loader := newFixtureLoader(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkgs, err := loader.Load(filepath.Join(loader.FixtureRoot, fx.fixture))
			if err != nil {
				t.Errorf("loading %s: %v", fx.fixture, err)
				return
			}
			for _, terr := range pkgs[0].TypeErrors {
				t.Errorf("%s: type error: %v", fx.fixture, terr)
			}
			if imp := importOf(pkgs, fx.path); imp == nil || !imp.Complete() {
				t.Errorf("%s: import %q missing or incomplete", fx.fixture, fx.path)
			}
		}()
	}
	wg.Wait()
}
