package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocKind classifies an intrinsic allocating construct. Calls into
// packages outside the analyzed set are not AllocSites; they are Calls,
// classified at query time by the tables in alloctable.go.
type AllocKind int

const (
	AllocMake       AllocKind = iota // make(...)
	AllocNew                         // new(T)
	AllocAppend                      // append that may grow a fresh slice
	AllocLit                         // escaping composite literal (&T{...}, []T{...}, map literals)
	AllocBoxing                      // non-pointer concrete value converted to interface
	AllocConcat                      // non-constant string concatenation
	AllocConversion                  // allocating conversion (string<->[]byte/[]rune)
	AllocClosure                     // escaping capturing func literal
)

// String names the construct for diagnostics.
func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocAppend:
		return "append into a fresh slice"
	case AllocLit:
		return "escaping composite literal"
	case AllocBoxing:
		return "interface boxing"
	case AllocConcat:
		return "string concatenation"
	case AllocConversion:
		return "allocating conversion"
	case AllocClosure:
		return "escaping capturing closure"
	default:
		return "allocation"
	}
}

// AllocSite is one intrinsic allocating construct in a function body.
type AllocSite struct {
	Pos  token.Pos
	Kind AllocKind
	// The exemption trio: an allocation on a path that terminates in an
	// error return (the ==0 allocs/op contract is a success-path,
	// steady-state property), inside a cap()-guarded grow block (the
	// amortized reuse idiom), or inside a telemetry-enabled check (the
	// dynamic gate benchmarks with telemetry disabled).
	ErrorPath      bool
	Guarded        bool
	TelemetryGated bool
}

// Exempt reports whether any steady-state exemption applies.
func (a AllocSite) Exempt() bool { return a.ErrorPath || a.Guarded || a.TelemetryGated }

// Exempt reports whether the call sits on an exempt path; exempt calls
// are neither traversed nor reported by the hotpath closure walk.
func (c *Call) Exempt() bool { return c.ErrorPath || c.Guarded || c.TelemetryGated }

// paramForward records "parameter ParamIdx is passed as argument ArgIdx
// of this call" — the edge ClosesParams propagates over.
type paramForward struct {
	call     *Call
	paramIdx int
	argIdx   int
}

// Summary is the per-function fact sheet the interprocedural analyzers
// consume.
type Summary struct {
	// ShortName is a diagnostic-friendly name: "Program.RunReuse",
	// "parallel.Collect".
	ShortName string

	// HasCtx reports a context.Context parameter; CtxParam is its
	// object (nil for unnamed/blank context parameters).
	HasCtx   bool
	CtxParam *types.Var

	// ReturnsError reports an error in the result list.
	ReturnsError bool

	// Hotpath is the //lint:hotpath annotation; Facade the
	// //lint:ctxfacade one. FacadeReason is the annotation's mandatory
	// justification ("" when missing — ctxflow reports that).
	Hotpath      bool
	Facade       bool
	FacadeReason string

	// BackgroundCalls are context.Background()/context.TODO() call
	// positions in the body.
	BackgroundCalls []token.Pos

	// Allocs are the intrinsic allocating constructs in the body
	// (function-literal bodies included).
	Allocs []AllocSite

	// ClosesParams marks parameter indices on which this function
	// calls Close — directly or by forwarding to a callee that does.
	// Index -1 is the method receiver. Filled by propagate.
	ClosesParams map[int]bool

	closesDirect map[int]bool
	forwards     []paramForward
}

// directive scans a function's doc comment for a //lint:<name> marker,
// returning presence and the rest of the line.
func directive(doc *ast.CommentGroup, name string) (bool, string) {
	if doc == nil {
		return false, ""
	}
	prefix := "//lint:" + name
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true, strings.TrimSpace(rest)
			}
		}
	}
	return false, ""
}

// summarize fills f.Summary and f.Calls by walking the body once.
func summarize(f *Func) {
	s := &Summary{
		ShortName:    shortName(f.Obj),
		closesDirect: make(map[int]bool),
	}
	f.Summary = s

	sig := f.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if isContextType(p.Type()) {
			s.HasCtx = true
			s.CtxParam = p
			break
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			s.ReturnsError = true
		}
	}
	s.Hotpath, _ = directive(f.Decl.Doc, "hotpath")
	s.Facade, s.FacadeReason = directive(f.Decl.Doc, "ctxfacade")

	w := &walker{
		f:         f,
		info:      f.Pkg.Info,
		sum:       s,
		params:    make(map[*types.Var]int),
		sanction:  make(map[*ast.CallExpr]bool),
		localFns:  make(map[types.Object]bool),
		noEscLits: make(map[*ast.FuncLit]bool),
	}
	if sig.Recv() != nil {
		w.registerParams(f.Decl.Recv, -1)
	}
	w.registerParamList(f.Decl.Type.Params)
	w.walkStmt(f.Decl.Body, flags{})
}

// flags is the exemption context a statement executes under.
type flags struct {
	errorPath, guarded, telGated bool
}

type walker struct {
	f    *Func
	info *types.Info
	sum  *Summary

	// params maps parameter objects (receiver included, index -1) to
	// their position in the signature.
	params map[*types.Var]int
	// sanction marks append calls recognized as the amortized reuse
	// idiom (self-append, or append on a parameter in a return).
	sanction map[*ast.CallExpr]bool
	// localFns holds local variables assigned a function literal; calls
	// through them are not dynamic (the literal's body is walked inline).
	localFns map[types.Object]bool
	// noEscLits marks function literals in non-escaping positions
	// (directly invoked, or bound to a plain local).
	noEscLits map[*ast.FuncLit]bool
}

func (w *walker) registerParamList(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	i := 0
	for _, field := range fl.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj, ok := w.info.Defs[name].(*types.Var); ok {
				w.params[obj] = i
			}
			i++
		}
	}
}

func (w *walker) registerParams(fl *ast.FieldList, idx int) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		for _, name := range field.Names {
			if obj, ok := w.info.Defs[name].(*types.Var); ok {
				w.params[obj] = idx
			}
		}
	}
}

// ---------------------------------------------------------------------
// Statements

func (w *walker) walkStmt(s ast.Stmt, fl flags) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st, fl)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init, fl)
		body := fl
		if condGuardsGrow(w.info, s.Cond) {
			body.guarded = true
		}
		if telemetryGate(w.info, s.Init, s.Cond) {
			body.telGated = true
		}
		w.walkExpr(s.Cond, fl)
		thenFl := body
		if endsInErrorReturn(w.info, s.Body.List) {
			thenFl.errorPath = true
		}
		w.walkStmt(s.Body, thenFl)
		if s.Else != nil {
			elseFl := body
			if blk, ok := s.Else.(*ast.BlockStmt); ok && endsInErrorReturn(w.info, blk.List) {
				elseFl.errorPath = true
			}
			w.walkStmt(s.Else, elseFl)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init, fl)
		w.walkExpr(s.Cond, fl)
		w.walkStmt(s.Post, fl)
		w.walkStmt(s.Body, fl)
	case *ast.RangeStmt:
		w.walkExpr(s.Key, fl)
		w.walkExpr(s.Value, fl)
		w.walkExpr(s.X, fl)
		w.walkStmt(s.Body, fl)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, fl)
		w.walkExpr(s.Tag, fl)
		w.walkCases(s.Body, fl)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, fl)
		w.walkStmt(s.Assign, fl)
		w.walkCases(s.Body, fl)
	case *ast.SelectStmt:
		w.walkCases(s.Body, fl)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.walkExpr(e, fl)
		}
		for _, st := range s.Body {
			w.walkStmt(st, fl)
		}
	case *ast.CommClause:
		w.walkStmt(s.Comm, fl)
		for _, st := range s.Body {
			w.walkStmt(st, fl)
		}
	case *ast.AssignStmt:
		w.walkAssign(s, fl)
	case *ast.ReturnStmt:
		if n := len(s.Results); n > 0 {
			if call, ok := unparen(s.Results[n-1]).(*ast.CallExpr); ok {
				if t := w.info.TypeOf(call); t != nil && isErrorType(t) {
					// A return that constructs its error in place
					// (`return 0, fmt.Errorf(...)`) is an error exit even
					// without an enclosing if — exempt like any error path.
					fl.errorPath = true
				}
			}
		}
		for _, r := range s.Results {
			if call, ok := unparen(r).(*ast.CallExpr); ok && w.isBuiltin(call, "append") && len(call.Args) > 0 {
				if base := baseIdent(call.Args[0]); base != nil {
					if _, isParam := w.params[w.objOf(base)]; isParam {
						// The b = f(b) idiom: returning an append of a
						// parameter hands the (possibly grown) buffer
						// back to the caller for reuse.
						w.sanction[call] = true
					}
				}
			}
			w.walkExpr(r, fl)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X, fl)
	case *ast.DeferStmt:
		w.walkCall(s.Call, fl, true)
	case *ast.GoStmt:
		w.walkCall(s.Call, fl, false)
	case *ast.SendStmt:
		w.walkExpr(s.Chan, fl)
		w.walkExpr(s.Value, fl)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, fl)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v, fl)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, fl)
	}
}

// walkCases walks a switch/select body, extending the error-path flag
// to case bodies that terminate in an error return.
func (w *walker) walkCases(body *ast.BlockStmt, fl flags) {
	for _, st := range body.List {
		caseFl := fl
		switch c := st.(type) {
		case *ast.CaseClause:
			if endsInErrorReturn(w.info, c.Body) {
				caseFl.errorPath = true
			}
		case *ast.CommClause:
			if endsInErrorReturn(w.info, c.Body) {
				caseFl.errorPath = true
			}
		}
		w.walkStmt(st, caseFl)
	}
}

func (w *walker) walkAssign(s *ast.AssignStmt, fl flags) {
	// Recognize the amortized self-append idiom x = append(x, ...) /
	// x = append(x[:0], ...): growth is one-time, steady state reuses
	// capacity (the dynamic allocs/op gate is the cross-check).
	if len(s.Lhs) == len(s.Rhs) {
		for i, rhs := range s.Rhs {
			call, ok := unparen(rhs).(*ast.CallExpr)
			if !ok || !w.isBuiltin(call, "append") || len(call.Args) == 0 {
				continue
			}
			lb, ab := baseIdent(s.Lhs[i]), baseIdent(call.Args[0])
			if lb != nil && ab != nil && w.objOf(lb) != nil && w.objOf(lb) == w.objOf(ab) {
				w.sanction[call] = true
			}
		}
	}
	// A function literal bound to a plain local does not escape; record
	// the local so calls through it are not classified dynamic.
	for i, rhs := range s.Rhs {
		if lit, ok := unparen(rhs).(*ast.FuncLit); ok && len(s.Lhs) == len(s.Rhs) {
			if id, ok := unparen(s.Lhs[i]).(*ast.Ident); ok {
				var obj types.Object
				if s.Tok == token.DEFINE {
					obj = w.info.Defs[id]
				} else {
					obj = w.info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && !v.IsField() {
					w.localFns[v] = true
					w.noEscLits[lit] = true
				}
			}
		}
	}
	for _, e := range s.Lhs {
		w.walkExpr(e, fl)
	}
	for _, e := range s.Rhs {
		w.walkExpr(e, fl)
	}
}

// ---------------------------------------------------------------------
// Expressions

func (w *walker) walkExpr(e ast.Expr, fl flags) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkCall(e, fl, false)
	case *ast.FuncLit:
		w.walkFuncLit(e, fl)
	case *ast.UnaryExpr:
		if lit, ok := unparen(e.X).(*ast.CompositeLit); ok && e.Op == token.AND {
			w.alloc(e.Pos(), AllocLit, fl)
			w.walkLitElts(lit, fl)
			return
		}
		w.walkExpr(e.X, fl)
	case *ast.CompositeLit:
		// Slice and map literals allocate their backing store; struct
		// value literals are plain (stack) values.
		if t := w.info.TypeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				w.alloc(e.Pos(), AllocLit, fl)
			}
		}
		w.walkLitElts(e, fl)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && !w.isConst(e) {
			if t := w.info.TypeOf(e); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.alloc(e.Pos(), AllocConcat, fl)
				}
			}
		}
		w.walkExpr(e.X, fl)
		w.walkExpr(e.Y, fl)
	case *ast.ParenExpr:
		w.walkExpr(e.X, fl)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, fl)
	case *ast.IndexExpr:
		w.walkExpr(e.X, fl)
		w.walkExpr(e.Index, fl)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, fl)
		for _, ix := range e.Indices {
			w.walkExpr(ix, fl)
		}
	case *ast.SliceExpr:
		w.walkExpr(e.X, fl)
		w.walkExpr(e.Low, fl)
		w.walkExpr(e.High, fl)
		w.walkExpr(e.Max, fl)
	case *ast.StarExpr:
		w.walkExpr(e.X, fl)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, fl)
	case *ast.KeyValueExpr:
		w.walkExpr(e.Key, fl)
		w.walkExpr(e.Value, fl)
	}
}

func (w *walker) walkLitElts(lit *ast.CompositeLit, fl flags) {
	for _, elt := range lit.Elts {
		w.walkExpr(elt, fl)
	}
}

// walkFuncLit inlines a literal's body into the enclosing function's
// summary. A literal that captures enclosing variables and sits in an
// escaping position is itself an allocation (the closure object).
// Exemption flags do not flow into the body: the literal may run on a
// different path than the one that created it.
func (w *walker) walkFuncLit(lit *ast.FuncLit, fl flags) {
	if !w.noEscLits[lit] && w.captures(lit) {
		w.alloc(lit.Pos(), AllocClosure, fl)
	}
	w.registerParamLitList(lit)
	w.walkStmt(lit.Body, flags{telGated: fl.telGated})
}

// registerParamLitList adds a literal's parameters to the param set so
// the return-append sanction applies inside append-style helpers; their
// indices are not meaningful for ClosesParams and are recorded as -2.
func (w *walker) registerParamLitList(lit *ast.FuncLit) {
	if lit.Type.Params == nil {
		return
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj, ok := w.info.Defs[name].(*types.Var); ok {
				if _, exists := w.params[obj]; !exists {
					w.params[obj] = -2
				}
			}
		}
	}
}

// captures reports whether the literal references a variable declared
// in the enclosing function (package-level state is not a capture).
func (w *walker) captures(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := w.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= w.f.Decl.Pos() && v.Pos() < lit.Pos() {
			found = true
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// Calls

func (w *walker) walkCall(call *ast.CallExpr, fl flags, deferred bool) {
	fun := unparen(call.Fun)
	// Immediately invoked literal: body walked, no closure escape.
	if lit, ok := fun.(*ast.FuncLit); ok {
		w.noEscLits[lit] = true
		w.walkFuncLit(lit, fl)
		w.walkArgs(call, nil, fl)
		return
	}

	// Builtins and conversions.
	switch {
	case w.isBuiltin(call, "make"):
		w.alloc(call.Pos(), AllocMake, fl)
		w.walkArgs(call, nil, fl)
		return
	case w.isBuiltin(call, "new"):
		w.alloc(call.Pos(), AllocNew, fl)
		return
	case w.isBuiltin(call, "append"):
		if !w.sanction[call] {
			w.alloc(call.Pos(), AllocAppend, fl)
		}
		w.walkArgs(call, nil, fl)
		return
	case w.isAnyBuiltin(call):
		w.walkArgs(call, nil, fl)
		return
	}
	if target, ok := w.conversion(call); ok {
		if allocatingConversion(w.info, call, target) {
			w.alloc(call.Pos(), AllocConversion, fl)
		}
		w.walkArgs(call, nil, fl)
		return
	}

	obj := calleeObj(w.info, call)
	c := &Call{
		Site:           call,
		Obj:            obj,
		ErrorPath:      fl.errorPath,
		Guarded:        fl.guarded,
		TelemetryGated: fl.telGated,
	}
	if obj != nil {
		c.Key = FuncKey(obj)
		if isInterfaceMethod(obj) {
			c.Dynamic = true
		}
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" &&
			(obj.Name() == "Background" || obj.Name() == "TODO") {
			w.sum.BackgroundCalls = append(w.sum.BackgroundCalls, call.Pos())
		}
		w.recordCtxArg(c, obj, call)
		w.recordCloseAndForwards(c, obj, call, deferred)
		w.boxingAtArgs(obj, call, fl)
	} else {
		// Call through a function-typed value: dynamic, unless it is a
		// local variable bound to a literal whose body is walked inline.
		if id, ok := fun.(*ast.Ident); ok && w.localFns[w.info.Uses[id]] {
			w.walkArgs(call, nil, fl)
			return
		}
		c.Dynamic = true
	}
	w.f.Calls = append(w.f.Calls, c)
	w.walkArgs(call, c, fl)
}

func (w *walker) walkArgs(call *ast.CallExpr, c *Call, fl flags) {
	for _, a := range call.Args {
		if lit, ok := unparen(a).(*ast.FuncLit); ok {
			// A literal passed as an argument escapes unless the callee
			// provably does not retain it; stay conservative.
			w.walkFuncLit(lit, fl)
			continue
		}
		w.walkExpr(a, fl)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(sel.X, fl)
	}
}

// recordCtxArg captures the expression passed in the callee's
// context.Context parameter position.
func (w *walker) recordCtxArg(c *Call, obj *types.Func, call *ast.CallExpr) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			if i < len(call.Args) {
				c.CtxArg = call.Args[i]
			}
			return
		}
	}
}

// recordCloseAndForwards feeds the resource half of the summary: a
// Close called on a parameter releases it here; a parameter passed to a
// callee may be released there (resolved by propagate).
func (w *walker) recordCloseAndForwards(c *Call, obj *types.Func, call *ast.CallExpr, deferred bool) {
	_ = deferred // a deferred Close is still a Close
	if obj.Name() == "Close" {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if base := baseIdent(sel.X); base != nil {
				if idx, ok := w.params[w.objOf(base)]; ok && idx >= -1 {
					w.sum.closesDirect[idx] = true
				}
			}
		}
	}
	for argIdx, a := range call.Args {
		base := baseIdent(a)
		if base == nil {
			continue
		}
		if idx, ok := w.params[w.objOf(base)]; ok && idx >= -1 {
			w.sum.forwards = append(w.sum.forwards, paramForward{call: c, paramIdx: idx, argIdx: argIdx})
		}
	}
}

// boxingAtArgs flags non-pointer concrete values passed in interface
// parameter positions — each such pass heap-allocates the boxed copy.
func (w *walker) boxingAtArgs(obj *types.Func, call *ast.CallExpr, fl flags) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	n := sig.Params().Len()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			st, ok := sig.Params().At(n - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < n:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			// A type-parameter position is not an interface box: the
			// instantiation is monomorphic, the argument passes unboxed.
			continue
		}
		if !isInterface(pt) {
			continue
		}
		at := w.info.TypeOf(a)
		if at == nil || isInterface(at) || pointerLike(at) || w.isConst(a) || isUntypedNil(w.info, a) {
			continue
		}
		w.alloc(a.Pos(), AllocBoxing, fl)
	}
}

// ---------------------------------------------------------------------
// Small helpers

func (w *walker) alloc(pos token.Pos, kind AllocKind, fl flags) {
	w.sum.Allocs = append(w.sum.Allocs, AllocSite{
		Pos:            pos,
		Kind:           kind,
		ErrorPath:      fl.errorPath,
		Guarded:        fl.guarded,
		TelemetryGated: fl.telGated,
	})
}

func (w *walker) objOf(id *ast.Ident) *types.Var {
	if v, ok := w.info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

func (w *walker) isConst(e ast.Expr) bool {
	tv, ok := w.info.Types[e]
	return ok && tv.Value != nil
}

func (w *walker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = w.info.Uses[id].(*types.Builtin)
	return ok
}

func (w *walker) isAnyBuiltin(call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isB := w.info.Uses[id].(*types.Builtin)
	return isB
}

func (w *walker) conversion(call *ast.CallExpr) (types.Type, bool) {
	tv, ok := w.info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// allocatingConversion reports string<->[]byte/[]rune conversions,
// which copy.
func allocatingConversion(info *types.Info, call *ast.CallExpr, target types.Type) bool {
	if len(call.Args) != 1 {
		return false
	}
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return false
	}
	return (isStringType(target) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(target) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// pointerLike covers types whose interface conversion stores the value
// directly in the interface word — no heap copy.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isInterfaceMethod(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isInterface(sig.Recv().Type())
}

// calleeObj resolves the called function object, seeing through parens
// and generic instantiation. Nil for calls through function values.
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = unparen(ix.X)
	}
	if ixl, ok := fun.(*ast.IndexListExpr); ok {
		fun = unparen(ixl.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}

// shortName builds a diagnostic-friendly name: "Type.Method" for
// methods, "pkg.Func" for plain functions.
func shortName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// endsInErrorReturn reports whether a statement list terminates in a
// return whose final result is a (non-nil) error — the shape of an
// error exit, whose allocations the steady-state contract excludes.
func endsInErrorReturn(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	ret, ok := list[len(list)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	last := unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	t := info.TypeOf(last)
	return t != nil && isErrorType(t)
}

// condGuardsGrow recognizes the two amortized-allocation guards: an if
// condition comparing cap(...) (the grow-on-demand idiom) or testing
// `x == nil` (the lazy-init idiom). Either marks the body as one-time
// setup, not steady-state allocation.
func condGuardsGrow(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(e.Fun).(*ast.Ident); ok && id.Name == "cap" {
				if _, isB := info.Uses[id].(*types.Builtin); isB {
					found = true
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.EQL && (isUntypedNil(info, e.X) || isUntypedNil(info, e.Y)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// telemetryGate recognizes `if tel := telemetry.Active(); tel != nil`
// and variants: a block entered only when a telemetry collector is
// installed. The dynamic allocs/op gates run with telemetry disabled,
// so the static contract excludes these blocks the same way.
func telemetryGate(info *types.Info, init ast.Stmt, cond ast.Expr) bool {
	found := false
	check := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if obj := calleeObj(info, call); obj != nil && obj.Name() == "Active" &&
			obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/telemetry") {
			found = true
		}
		return true
	}
	if init != nil {
		ast.Inspect(init, check)
	}
	if cond != nil && !found {
		ast.Inspect(cond, check)
	}
	return found
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// baseIdent walks selector/index/star/slice chains to the root
// identifier; nil when the root is not an identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
