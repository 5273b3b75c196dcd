// Command twocslint runs the repo's static-analysis suite — the
// invariants go vet cannot see. It loads every package in the module,
// test files included, with the standard library's go/parser + go/types
// (no external dependencies, matching the module's empty require list)
// and runs:
//
//	unitcheck  dimensional safety of the internal/units algebra
//	floatcmp   no ==/!= on float64-backed values outside approved helpers
//	detrange   no map-ordered iteration feeding deterministic output
//	lockcheck  '// guarded by <mu>' fields accessed only under the lock,
//	           interprocedurally through same-receiver helper methods
//	sweeppure  no mutation of captured state in parallel.Collect/StreamCtx task closures
//	hotalloc   //lint:hotpath functions and everything they transitively
//	           call are provably allocation-free in steady state
//	ctxflow    context.Context threads through library call chains; no
//	           context.Background()/TODO() outside main and facades
//	sinkclose  stream.Sink, os.File and pprof acquisitions are released
//	           on every path
//
// hotalloc, ctxflow and sinkclose are interprocedural: they share one
// module-wide call graph with per-function summaries (internal/lint/flow)
// built from the same go/types data.
//
// Usage:
//
//	twocslint [-analyzers name,name] [pattern ...]
//
// Patterns are directories relative to the module root, or "./..." to
// walk the whole tree (the default). Exit status: 0 clean, 1 findings,
// 2 load or usage failure.
//
// Annotation vocabulary (all in doc comments):
//
//	//lint:hotpath
//	    declares a function steady-state allocation-free; hotalloc
//	    proves the claim over its whole transitive call closure, and
//	    the allocs/op==0 benchmarks cross-check it dynamically.
//	//lint:ctxfacade <reason>
//	    allowlists a deliberate non-context compatibility entry point;
//	    ctxflow requires the reason and stops severance propagation at
//	    the facade.
//	//lint:ignore <analyzer> <why this is safe>
//	    suppresses one finding, on the offending line, the line above
//	    it, or the head line of the innermost enclosing statement.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twocs/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("twocslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzerNames := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := lint.ByName(*analyzerNames)
	if err != nil {
		fmt.Fprintln(stderr, "twocslint:", err)
		return 2
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "twocslint:", err)
		return 2
	}
	root, modulePath, err := lint.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintln(stderr, "twocslint:", err)
		return 2
	}
	loader := &lint.Loader{Dir: root, ModulePath: modulePath}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "twocslint:", err)
		return 2
	}

	loadFailed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "twocslint: %s: %v\n", pkg.Path, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !filepath.IsAbs(rel) {
			pos.Filename = rel
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "twocslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
