package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the cancellation contract the robustness layer (PR
// 4) established: work started on behalf of a caller must be stoppable
// by that caller. Three rules:
//
//   - BG: context.Background() / context.TODO() are forbidden in
//     library packages (anything that is not a main package and not a
//     test file). A function may opt out by declaring itself a facade
//     in its doc comment:
//
//     //lint:ctxfacade <reason>
//
//     The reason is mandatory — the annotation is an explicit allowlist
//     entry, reviewed like code, not a blanket ignore. The module
//     itself needs none: every sweep and study takes its caller's
//     context.
//
//   - DROP: a function that has a context parameter but passes a
//     context-taking callee an argument containing no context value
//     (nil, or a manufactured context) is dropping its caller's
//     cancellation signal on the floor.
//
//   - SEVER (interprocedural): an exported function with a context
//     parameter must not call a context-free, non-facade callee that
//     transitively reaches context-taking machinery — the chain is
//     severed at that hop, and cancellation can never arrive. The
//     flow graph's Severs walk proves reachability.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "context.Context must thread through to every blocking callee; Background/TODO only behind //lint:ctxfacade",
	Run:       runCtxFlow,
	NeedsFlow: true,
}

func runCtxFlow(p *Pass) {
	library := p.Pkg.Name() != "main"
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := p.Flow.FuncAt(fd)
			if fn == nil {
				continue
			}
			s := fn.Summary

			if s.Facade && s.FacadeReason == "" {
				p.Report(fd.Pos(), "//lint:ctxfacade needs a reason: \"//lint:ctxfacade <why no caller context exists>\"")
			}

			// BG: manufactured contexts in library code.
			if library && !s.Facade {
				for _, pos := range s.BackgroundCalls {
					if p.InTestFile(pos) {
						continue
					}
					p.Report(pos, "context.Background/TODO in library code severs caller cancellation; thread a ctx parameter or annotate the function //lint:ctxfacade <reason>")
				}
			}

			if !s.HasCtx {
				continue
			}
			for _, c := range fn.Calls {
				if c.Dynamic {
					continue
				}
				if p.InTestFile(c.Pos()) {
					continue
				}
				if c.TakesCtx() {
					// DROP: the callee accepts a context; the argument in
					// that position must carry one.
					if c.CtxArg != nil && !mentionsContext(p.Info, c.CtxArg) {
						p.Report(c.Pos(), "%s has a context but passes %s a non-context value in its context position; forward the ctx", s.ShortName, calleeName(c.Obj))
					}
					continue
				}
				// SEVER: context-free hop into context-taking machinery.
				if c.Callee != nil && !c.Callee.Summary.Facade && p.Flow.Severs(c.Callee) {
					p.Report(c.Pos(), "%s has a context but calls %s, which reaches context-taking code without one; add a ctx parameter to %s or annotate it //lint:ctxfacade", s.ShortName, c.Callee.Summary.ShortName, c.Callee.Summary.ShortName)
				}
			}
		}
	}
}

// mentionsContext reports whether the expression contains any value of
// type context.Context — a forwarded parameter, a context.With* result,
// anything carrying the caller's chain.
func mentionsContext(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		if t := info.TypeOf(expr); t != nil && isContextInterface(t) {
			found = true
		}
		return true
	})
	return found
}

func isContextInterface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func calleeName(obj *types.Func) string {
	if obj == nil {
		return "callee"
	}
	full := obj.FullName()
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}
