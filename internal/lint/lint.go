// Package lint is the repo's static-analysis framework: a small,
// zero-dependency (stdlib go/ast + go/types only) analogue of
// golang.org/x/tools/go/analysis, purpose-built for the invariants this
// codebase lives on — unit-safety of the FLOPs/bytes/seconds algebra,
// byte-determinism of every rendered artifact, and the lock and purity
// discipline the parallel sweep engine demands.
//
// An Analyzer is a named pass over one type-checked package; the
// cmd/twocslint driver runs the whole suite over every package in the
// module and exits non-zero on any finding, so CI can gate on it.
// Analyzers that set NeedsFlow additionally receive the interprocedural
// call graph (internal/lint/flow), built once per run over the full
// package set.
//
// False positives are suppressed inline:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line, on the line immediately above it, or —
// when the diagnostic lands on a node enclosing the directive (a
// detrange finding points at the `for` of a loop whose body holds the
// directive) — anywhere inside the innermost enclosing statement. The
// analyzer list may be "all". A reason is mandatory; an ignore
// directive without one is itself reported. The index is built over
// the whole package set, so a directive suppresses findings an
// interprocedural analyzer reports into its file from another
// package's pass.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"twocs/internal/lint/flow"
)

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(*Pass)
	// NeedsFlow requests the interprocedural call graph on Pass.Flow.
	NeedsFlow bool
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	// PkgPath is the package's import path.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	// Flow is the package-set call graph, non-nil only for analyzers
	// with NeedsFlow set.
	Flow *flow.Graph

	ignores *ignoreIndex
	sink    *[]Diagnostic
}

// Report records a finding at pos unless an ignore directive suppresses
// it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf is a nil-safe shorthand for the expression's type.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// IsConstant reports whether e evaluates to a compile-time constant.
func (p *Pass) IsConstant(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ignoreIndex records where //lint:ignore directives suppress findings.
// Two granularities:
//
//   - lines: the directive's own line — suppresses findings on that
//     line and the next, so a directive can sit above the flagged
//     statement or trail it.
//   - heads: the first line of the innermost enclosing non-block
//     statement (or declaration) — suppresses findings on exactly that
//     line. This is what lets a directive inside a loop body suppress a
//     diagnostic reported at the loop keyword.
type ignoreIndex struct {
	lines map[string]map[int][]string
	heads map[string]map[int][]string
}

func (ix *ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	match := func(names []string) bool {
		for _, name := range names {
			if name == analyzer || name == "all" {
				return true
			}
		}
		return false
	}
	byLine := ix.lines[pos.Filename]
	if match(byLine[pos.Line]) || match(byLine[pos.Line-1]) {
		return true
	}
	return match(ix.heads[pos.Filename][pos.Line])
}

func (ix *ignoreIndex) add(m map[string]map[int][]string, file string, line int, names []string) {
	byFile := m[file]
	if byFile == nil {
		byFile = make(map[int][]string)
		m[file] = byFile
	}
	byFile[line] = append(byFile[line], names...)
}

const ignorePrefix = "//lint:ignore"

// buildIgnoreIndex scans every comment of every package for ignore
// directives and builds one module-wide index. Malformed directives (no
// analyzer list or no reason) are reported as findings themselves so
// they cannot silently rot. Files shared between package views (a
// package and its test variant) are scanned once.
func buildIgnoreIndex(pkgs []*Package, sink *[]Diagnostic) *ignoreIndex {
	ix := &ignoreIndex{
		lines: make(map[string]map[int][]string),
		heads: make(map[string]map[int][]string),
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Pos()).Filename
			if seen[filename] {
				continue
			}
			seen[filename] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					pos := pkg.Fset.Position(c.Pos())
					if len(fields) < 2 {
						*sink = append(*sink, Diagnostic{
							Pos:      pos,
							Analyzer: "lintdirective",
							Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer>[,...] <reason>\"",
						})
						continue
					}
					var names []string
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							names = append(names, name)
						}
					}
					ix.add(ix.lines, pos.Filename, pos.Line, names)
					if head, ok := enclosingHead(pkg.Fset, f, c.Pos()); ok && head != pos.Line {
						ix.add(ix.heads, pos.Filename, head, names)
					}
				}
			}
		}
	}
	return ix
}

// enclosingHead finds the starting line of the innermost statement or
// declaration whose source range covers pos, skipping bare blocks and
// case clauses (a directive inside a loop or if body attaches to the
// loop/if itself, not to the brace pair).
func enclosingHead(fset *token.FileSet, file *ast.File, pos token.Pos) (int, bool) {
	var innermost ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || pos >= n.End() {
			// Subtrees that do not cover pos are dead ends — except the
			// File itself, whose Pos (the package clause) need not span
			// every comment.
			_, isFile := n.(*ast.File)
			return isFile
		}
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			// Bare blocks have no reportable head of their own.
		default:
			if _, ok := n.(ast.Stmt); ok {
				innermost = n
			} else if _, ok := n.(ast.Decl); ok {
				innermost = n
			}
		}
		return true
	})
	if innermost == nil {
		return 0, false
	}
	return fset.Position(innermost.Pos()).Line, true
}

// Run executes every analyzer over every package and returns the
// findings sorted by position then analyzer name. The ignore index and
// (when any analyzer asks for it) the interprocedural call graph are
// built once over the full package set.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ix := buildIgnoreIndex(pkgs, &diags)

	var graph *flow.Graph
	for _, a := range analyzers {
		if a.NeedsFlow {
			infos := make([]*flow.PackageInfo, len(pkgs))
			for i, pkg := range pkgs {
				infos[i] = &flow.PackageInfo{
					Path:  pkg.Path,
					Fset:  pkg.Fset,
					Files: pkg.Files,
					Pkg:   pkg.Types,
					Info:  pkg.Info,
				}
			}
			graph = flow.Build(infos)
			break
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				PkgPath:  pkg.Path,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				ignores:  ix,
				sink:     &diags,
			}
			if a.NeedsFlow {
				pass.Flow = graph
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// All returns the full analyzer suite in stable order.
//
// Production targets, the non-test code in which each analyzer has
// something to check (paths relative to the module root):
//
//   - unitcheck: arithmetic on internal/units quantities in every package
//     that imports them except units itself: cmd/twocs, perfbench and
//     internal/{collective,core,dist,hw,kernels,memsim,model,opmodel,
//     profile,sim,stream,tensor}.
//   - floatcmp: ==/!= on float64-backed values anywhere outside the
//     approved comparison helpers.
//   - detrange: every map range in internal/{report,telemetry,stream},
//     opmodel/serialize.go, sim/chrometrace.go and
//     telemetry/chrometrace.go; elsewhere, map ranges that print.
//   - lockcheck: the "guarded by" fields of memo.Memo (the state of
//     every memo in the module), telemetry.Collector,
//     telemetry.Progress, telemetry.Sampler, profile.Ledger,
//     parallel.sequencer, parallel.claimState (the claim state behind
//     Collect and StreamCtx), this package's stdlib importer and
//     perfbench's tracer and timingMiddleware.
//   - sweeppure: the task closures passed to parallel.Collect in
//     internal/core/{casestudy,degradation,exhaustive,scaling,sweep,
//     zoostudy}.go and to StreamCtx in perfbench/sweep.go.
//   - hotalloc: the //lint:hotpath Emit methods of stream.NDJSON, CSV,
//     Pareto, TopK and Marginals, opmodel.LayerProjection.Scale,
//     sim.Program.RunReuse and Summarize and dist.CompiledIteration.Report,
//     with their call closures.
//   - ctxflow: every function that takes a context.Context: internal/
//     {core,memo,parallel,serve,telemetry}, cmd/twocs, cmd/twocsd,
//     perfbench; and the one //lint:ctxfacade, memo.Memo.Do.
//   - sinkclose: the stream sinks, files and pprof handles opened in
//     cmd/twocs, perfbench/sweep.go, examples/calibration and
//     internal/serve/handlers.go.
func All() []*Analyzer {
	return []*Analyzer{
		UnitCheck,
		FloatCmp,
		DetRange,
		LockCheck,
		SweepPure,
		HotAlloc,
		CtxFlow,
		SinkClose,
	}
}

// ByName resolves a comma-separated analyzer list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	all := All()
	if names == "" {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
	}
	return out, nil
}
