package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// newFixtureLoader builds a loader rooted at this module with the
// fixture tree mounted, so fixture packages can import real repo packages
// (twocs/internal/units, twocs/internal/parallel).
func newFixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, modPath, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return &Loader{
		Dir:         root,
		ModulePath:  modPath,
		FixtureRoot: filepath.Join(wd, "testdata", "src"),
	}
}

// sharedFixtureLoader is the one loader the fixture tests share, so the
// repo packages the fixtures import are type-checked once per test
// binary instead of once per fixture (the stdlib is shared by every
// Loader). The Loader is not safe for concurrent use; these tests do
// not call t.Parallel.
var sharedFixtureLoader *Loader

// fixtureLoader returns the shared fixture loader.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedFixtureLoader == nil {
		sharedFixtureLoader = newFixtureLoader(t)
	}
	return sharedFixtureLoader
}

var wantRE = regexp.MustCompile(`// want (.+)$`)
var wantQuoted = regexp.MustCompile(`"([^"]*)"`)

// expectation is one // want "..." comment: a substring that must
// appear in a diagnostic on that line.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := wantQuoted.FindAllStringSubmatch(m[1], -1)
			if len(quoted) == 0 {
				t.Fatalf("%s:%d: malformed // want comment (no quoted substring)", path, i+1)
			}
			for _, q := range quoted {
				out = append(out, &expectation{file: path, line: i + 1, substr: q[1]})
			}
		}
	}
	return out
}

// runFixture loads one fixture package, runs a single analyzer, and
// checks the diagnostics against the // want comments exactly: every
// expectation must be hit, and every diagnostic must be expected.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	loader := fixtureLoader(t)
	dir := filepath.Join(loader.FixtureRoot, fixture)
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture %s: type error: %v", fixture, terr)
		}
	}
	expectations := parseExpectations(t, dir)
	diags := Run(pkgs, []*Analyzer{a})

	for _, d := range diags {
		matched := false
		for _, want := range expectations {
			if !want.matched && want.file == d.Pos.Filename && want.line == d.Pos.Line &&
				strings.Contains(d.Message, want.substr) {
				want.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, want := range expectations {
		if !want.matched {
			t.Errorf("%s:%d: expected a diagnostic containing %q, got none", want.file, want.line, want.substr)
		}
	}
}

func TestUnitCheckFixture(t *testing.T) { runFixture(t, UnitCheck, "unitcheck") }
func TestFloatCmpFixture(t *testing.T)  { runFixture(t, FloatCmp, "floatcmp") }
func TestDetRangeFixture(t *testing.T)  { runFixture(t, DetRange, "detrange") }
func TestLockCheckFixture(t *testing.T) { runFixture(t, LockCheck, "lockcheck") }
func TestSweepPureFixture(t *testing.T) { runFixture(t, SweepPure, "sweeppure") }
func TestHotAllocFixture(t *testing.T)  { runFixture(t, HotAlloc, "hotalloc") }
func TestCtxFlowFixture(t *testing.T)   { runFixture(t, CtxFlow, "ctxflow") }
func TestSinkCloseFixture(t *testing.T) { runFixture(t, SinkClose, "sinkclose") }

// TestIgnoreScopeFixture pins the innermost-covering-node suppression
// rule: a directive inside a loop body suppresses a diagnostic reported
// at the loop keyword.
func TestIgnoreScopeFixture(t *testing.T) { runFixture(t, DetRange, "ignorescope") }

// TestByName covers the analyzer-selection helper.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want %d, nil", len(all), err, len(All()))
	}
	got, err := ByName("floatcmp,detrange")
	if err != nil || len(got) != 2 || got[0].Name != "floatcmp" || got[1].Name != "detrange" {
		t.Fatalf("ByName(floatcmp,detrange) = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should error")
	}
}

// TestDiagnosticString pins the file:line:col rendering the driver and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "floatcmp", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: floatcmp: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
