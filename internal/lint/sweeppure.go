package lint

import (
	"go/ast"
	"go/types"
)

// SweepPure enforces the purity contract of the parallel sweep engine:
// a task closure — the fn argument of parallel.Collect or
// parallel.StreamCtx — runs on many goroutines at once, so it must
// communicate only through its return value. StreamCtx's emit closure
// is exempt: the engine serializes it, and accumulating there is its
// job. The analyzer flags, anywhere inside a task closure (nested
// literals included):
//
//   - assignments, ++/--, and op= on variables captured from the
//     enclosing scope (including named result parameters and
//     package-level variables);
//   - writes into captured maps (concurrent map writes fault at
//     runtime);
//   - writes through fields or pointers rooted at a captured variable.
//
// Reads of captured state are fine — the sweeps share immutable
// substrates by design. Writes into captured slices by element index
// are also allowed: disjoint-index writes are the engine's own result
// pattern. Mutating a captured value behind a lock is a legitimate
// exception (the profiling ledger does it); suppress those with
// //lint:ignore sweeppure and name the lock.
var SweepPure = &Analyzer{
	Name: "sweeppure",
	Doc:  "flags task closures passed to parallel.Collect or StreamCtx that mutate captured variables",
	Run:  runSweepPure,
}

const parallelPathSuffix = "internal/parallel"

func runSweepPure(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || !hasSuffixPath(fn.Pkg().Path(), parallelPathSuffix) {
				return true
			}
			// The task closure is Collect's last argument and
			// StreamCtx's last but one (emit follows it).
			var arg int
			switch fn.Name() {
			case "Collect":
				arg = len(call.Args) - 1
			case "StreamCtx":
				arg = len(call.Args) - 2
			default:
				return true
			}
			if arg < 0 {
				return true
			}
			lit, ok := unparen(call.Args[arg]).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkClosurePurity(p, fn.Name(), lit)
			return true
		})
	}
}

func checkClosurePurity(p *Pass, engineFn string, lit *ast.FuncLit) {
	captured := func(id *ast.Ident) bool {
		if id == nil || id.Name == "_" {
			return false
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}

	report := func(n ast.Node, id *ast.Ident, how string) {
		p.Report(n.Pos(), "parallel.%s closure mutates captured variable %q (%s); workers race on it — return the value instead, or lock and //lint:ignore", engineFn, id.Name, how)
	}

	checkTarget := func(n ast.Node, target ast.Expr) {
		switch t := unparen(target).(type) {
		case *ast.Ident:
			if captured(t) {
				report(n, t, "assignment")
			}
		case *ast.IndexExpr:
			base := baseIdent(t.X)
			if base == nil || !captured(base) {
				return
			}
			bt := p.TypeOf(t.X)
			if bt == nil {
				return
			}
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				report(n, base, "map write")
			}
		case *ast.SelectorExpr, *ast.StarExpr:
			if base := baseIdent(t); base != nil && captured(base) {
				report(n, base, "write through field or pointer")
			}
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkTarget(n, lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(n, n.X)
		}
		return true
	})
}
