package lint

import (
	"fmt"
	"go/ast"
	"strings"

	"twocs/internal/lint/flow"
)

// HotAlloc statically proves the repo's zero-allocation contract: a
// function annotated
//
//	//lint:hotpath
//
// in its doc comment — sim.Program.RunReuse, the stream Emit paths and
// opmodel.LayerProjection.Scale — must contain no allocating construct,
// and neither may anything in its static call-graph closure. The
// dynamic side of the same contract is the ==0 allocs/op CI gate
// (TestProgramReTimeAllocBound and friends); hotalloc is the static
// proof that the bound holds by construction, not by benchmark luck.
//
// Allocating constructs: make, new, append into a fresh slice,
// escaping composite literals, interface boxing, non-constant string
// concatenation, string<->[]byte conversions, escaping capturing
// closures, and calls into external packages known to allocate (fmt.*
// above all). External callees absent from the allocation tables are
// reported as "not proven allocation-free" — the strict default; extend
// internal/lint/flow/alloctable.go rather than suppressing.
//
// Three construct exemptions mirror how the dynamic gate measures:
// allocations on paths terminating in an error return (the contract is
// a success-path property), cap()-guarded grow blocks (one-time
// amortized growth of reused buffers), and telemetry-gated blocks (the
// gates run with telemetry disabled). Dynamic calls — interface
// methods, function values — cannot be proven and are reported.
//
// Findings land at the offending site, which may be in a different
// package than the annotated root; the message carries the call chain
// from the root so the trace reads like a stack.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "functions annotated //lint:hotpath and their call-graph closure must be allocation-free",
	Run:       runHotAlloc,
	NeedsFlow: true,
}

func runHotAlloc(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			root := p.Flow.FuncAt(fd)
			if root == nil || !root.Summary.Hotpath {
				continue
			}
			p.Flow.Closure(root, func(v flow.Visit) {
				reportHotVisit(p, root, v)
			})
		}
	}
}

// reportHotVisit reports every non-exempt allocation and unprovable
// call in one closure member.
func reportHotVisit(p *Pass, root *flow.Func, v flow.Visit) {
	where := chain(root, v)
	for _, a := range v.Fn.Summary.Allocs {
		if a.Exempt() {
			continue
		}
		p.Report(a.Pos, "%s in %s%s", a.Kind, v.Fn.Summary.ShortName, where)
	}
	for _, c := range v.Fn.Calls {
		if c.Exempt() {
			continue
		}
		switch {
		case c.Dynamic:
			p.Report(c.Pos(), "dynamic call in %s cannot be proven allocation-free%s", v.Fn.Summary.ShortName, where)
		case c.Callee != nil:
			// In-set callee: its body is (or will be) visited by the
			// closure walk; nothing to report at the call site.
		case c.Obj != nil:
			switch flow.Classify(c.Obj) {
			case flow.ExtAlloc:
				p.Report(c.Pos(), "call to allocating %s in %s%s", shortCallee(c.Obj.FullName()), v.Fn.Summary.ShortName, where)
			case flow.ExtUnknown:
				p.Report(c.Pos(), "call to %s not proven allocation-free in %s%s (extend flow/alloctable.go if it is)", shortCallee(c.Obj.FullName()), v.Fn.Summary.ShortName, where)
			}
		}
	}
}

// chain renders the call path from the hotpath root to the visited
// function, empty for the root itself.
func chain(root *flow.Func, v flow.Visit) string {
	if len(v.Path) == 0 {
		return " (//lint:hotpath)"
	}
	parts := make([]string, 0, len(v.Path)+1)
	parts = append(parts, root.Summary.ShortName)
	for _, c := range v.Path {
		if c.Callee != nil {
			parts = append(parts, c.Callee.Summary.ShortName)
		}
	}
	return fmt.Sprintf(" (hot path: %s)", strings.Join(parts, " -> "))
}

// shortCallee trims the package path of a FullName down to pkg.Name /
// (*pkg.Recv).Name for readable diagnostics.
func shortCallee(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}
