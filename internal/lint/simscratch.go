package lint

import (
	"go/ast"
	"go/types"
)

// SimScratch enforces the scratch-state contract of the compiled
// simulator (internal/sim): a *sim.RunState is single-goroutine scratch
// memory, so one captured from the enclosing scope must never be used
// inside a closure handed to the parallel sweep engine — every worker
// would replay its event loop over the same buffers. The analyzer flags
// any use of a captured RunState variable inside a closure passed to
// parallel.Collect (nested literals included). The
// safe patterns are untouched: calling Program.Run (which draws from
// the program's internal pool) or allocating with Program.NewState
// inside the closure, and capturing the *sim.Program itself, which is
// immutable and meant to be shared.
var SimScratch = &Analyzer{
	Name: "simscratch",
	Doc:  "flags sim.RunState scratch captured into parallel sweep closures",
	Run:  runSimScratch,
}

const simPathSuffix = "internal/sim"

// isRunState reports whether t is sim.RunState or a pointer to it.
func isRunState(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "RunState" &&
		obj.Pkg() != nil && hasSuffixPath(obj.Pkg().Path(), simPathSuffix)
}

func runSimScratch(p *Pass) {
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
			if fn.Name() != "Collect" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkScratchCapture(p, fn.Name(), lit)
			return true
		})
	}
}

func checkScratchCapture(p *Pass, engineFn string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj, ok := p.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || !isRunState(obj.Type()) {
			return true
		}
		// Declared inside the closure (e.g. st := prog.NewState()) is
		// the intended per-worker pattern; only captures race.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		p.Report(id.Pos(), "parallel.%s closure uses captured sim.RunState %q; scratch state is single-goroutine — call Program.Run (pooled) or allocate with NewState inside the closure", engineFn, id.Name)
		return true
	})
}
