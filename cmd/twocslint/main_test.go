package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twocs/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestCleanTreeExitsZero is the one tree-wide lint gate: the whole
// suite, over ./... with test files, through the real driver, where a
// type error exits 2 and a finding exits 1. The tree must lint clean.
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("twocslint ./... = exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run should print nothing, got:\n%s", out.String())
	}
}

// TestFixtureViolationsExitNonZero re-introduces known violations by
// pointing the driver at a lint fixture directory: the process contract
// (exit 1, positioned file:line:col diagnostics) is what CI gates on.
func TestFixtureViolationsExitNonZero(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-analyzers", "floatcmp", "internal/lint/testdata/src/floatcmp"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"floatcmp.go:10:", "exact-equality", "finding(s)"} {
		if !strings.Contains(out.String()+errOut.String(), want) {
			t.Errorf("output missing %q\nstdout:\n%s\nstderr:\n%s", want, out.String(), errOut.String())
		}
	}
}

// TestGoldenOutput pins the CLI's output byte-for-byte: sorted by
// (file, line, column, analyzer, message), module-relative paths, one
// finding per line. Byte-stable output is what makes the lint step
// diffable in CI; if a message format changes deliberately, regenerate
// with `go test ./cmd/twocslint -run Golden -update`.
func TestGoldenOutput(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := lint.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	// run() resolves and prints paths relative to the working directory;
	// the golden file is recorded from the module root.
	t.Chdir(root)

	goldenPath := filepath.Join(root, "cmd", "twocslint", "testdata", "hotalloc.golden")
	args := []string{"-analyzers", "hotalloc", "internal/lint/testdata/src/hotalloc"}

	var first strings.Builder
	if code := run(args, &first, &strings.Builder{}); code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture has findings)", code)
	}
	var second strings.Builder
	if code := run(args, &second, &strings.Builder{}); code != 1 {
		t.Fatalf("second run exit = %d, want 1", code)
	}
	if first.String() != second.String() {
		t.Fatalf("output is not deterministic across runs:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}

	if *update {
		if err := os.WriteFile(goldenPath, []byte(first.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended):\n--- got\n%s--- want\n%s",
			goldenPath, first.String(), string(want))
	}
}

// TestBadAnalyzerNameExitsTwo pins usage failures to exit code 2.
func TestBadAnalyzerNameExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-analyzers", "nosuch", "internal/units"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Fatalf("stderr missing unknown-analyzer message: %s", errOut.String())
	}
}
