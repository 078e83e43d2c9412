package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural function summaries. The ownership analyzers refbalance
// and goroleak need to see *through* calls: core.pin's `return f,
// f.Release` hands a pin obligation to its caller — the mirror it
// retained, with its release — and a `go worker(ch)` statement blocks
// wherever worker does. summarize computes, bottom-up over the call graph
// the type-checked module already encodes, one FuncSummary per declared
// function:
//
//   - ReturnsRelease: which results carry a release obligation to the
//     caller — a func() release callback (f.Release as a method value,
//     or a forwarded release-func received from another summarized
//     call) or a retained refcounted value itself;
//   - Spawns: the function's `go` launch sites, with enough context
//     (body or resolved callee, enclosing declaration) for goroleak to
//     judge each one;
//   - Blocks: whether a synchronous call to the function can block
//     forever on a channel operation with no escape edge.
//
// Summaries are computed to a fixpoint (the module's wrapper chains are
// shallow — pin → barrier.pinAt → QueryAtCtx — but the iteration makes
// depth a non-issue), and both analyzers read the same Summaries object.

// FuncSummary is the interprocedural abstract of one declared function.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// ReturnsRelease[i] reports that result i hands the caller a release
	// obligation: a func() the caller must invoke (or transfer), or a
	// retained refcounted value the caller must Release (or transfer).
	ReturnsRelease []bool
	// Spawns lists the function's directly launched goroutines.
	Spawns []*GoSite
	// Blocks marks a function whose synchronous execution can park
	// forever on a channel operation with no escape edge; BlockPos is
	// the offending operation (possibly inside a callee).
	Blocks   bool
	BlockPos token.Pos
}

// GoSite is one `go` statement, recorded with what goroleak needs to
// judge it without re-walking the module.
type GoSite struct {
	Stmt *ast.GoStmt
	Pkg  *Package
	// Encl is the declaration lexically containing the statement; local
	// buffered-channel provenance is resolved against it.
	Encl *ast.FuncDecl
	// Body is the launched function literal's body (nil for `go f(x)`).
	Body *ast.BlockStmt
	// Callee is the resolved launched function for `go f(x)` (nil for
	// literals and unresolvable calls).
	Callee *types.Func
}

// Summaries is the module-wide summary table shared by the ownership
// analyzers.
type Summaries struct {
	funcs map[*types.Func]*FuncSummary
}

// Of returns fn's summary, or nil for functions declared outside the
// analyzed packages (stdlib, interface methods without bodies).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[fn]
}

// summarize builds the module summary table. The per-function facts are
// recomputed until no summary changes, so facts propagate through
// wrapper chains of any depth regardless of declaration order.
func summarize(pass *Pass) *Summaries {
	sum := &Summaries{funcs: make(map[*types.Func]*FuncSummary)}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				fs := &FuncSummary{Fn: fn, Decl: fd, Pkg: pkg}
				sig := fn.Type().(*types.Signature)
				fs.ReturnsRelease = make([]bool, sig.Results().Len())
				sum.funcs[fn] = fs
			}
		}
	}
	for _, fs := range sum.funcs {
		fs.collectSpawns()
	}
	for changed := true; changed; {
		changed = false
		for _, fs := range sum.funcs {
			if fs.updateReturns(sum) {
				changed = true
			}
			if fs.updateBlocks(sum) {
				changed = true
			}
		}
	}
	return sum
}

// collectSpawns records the function's `go` statements (not recursing
// into nested function literals: a literal's launches belong to the
// lexical function for reporting, which is exactly this declaration, so
// recursion is wanted for literals but launches inside a *nested go
// body* still report against this declaration too — goroleak reports by
// position, so attribution only affects grouping).
func (fs *FuncSummary) collectSpawns() {
	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		site := &GoSite{Stmt: g, Pkg: fs.Pkg, Encl: fs.Decl}
		if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			site.Body = fl.Body
		} else {
			site.Callee = calleeFunc(fs.Pkg.Info, g.Call)
		}
		fs.Spawns = append(fs.Spawns, site)
		return true
	})
}

// isRetainableType reports whether t (possibly a pointer) names a type
// carrying the house refcount protocol: a Retain() bool method paired
// with a Release() method.
func isRetainableType(t types.Type) bool {
	if t == nil {
		return false
	}
	retain, _, _ := types.LookupFieldOrMethod(t, true, nil, "Retain")
	release, _, _ := types.LookupFieldOrMethod(t, true, nil, "Release")
	rf, ok := retain.(*types.Func)
	if !ok || release == nil {
		return false
	}
	if _, ok := release.(*types.Func); !ok {
		return false
	}
	sig := rf.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// isReleaseFuncType reports whether t is the shape of a release
// callback: func() with no parameters or results.
func isReleaseFuncType(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0 && sig.Recv() == nil
}

// retainCallReceiver returns the receiver object of a call to the
// refcount protocol's Retain method, or nil when call is not one.
func retainCallReceiver(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Retain" || len(call.Args) != 0 {
		return nil
	}
	t := info.Types[sel.X].Type
	if !isRetainableType(t) {
		return nil
	}
	return baseObject(info, sel.X)
}

// releaseCallTarget returns the object whose refcount a Release call
// drops (x in x.Release()), or nil.
func releaseCallTarget(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return nil
	}
	return baseObject(info, sel.X)
}

// releaseMethodValue returns the object x when expr is the method value
// x.Release (not called), or nil.
func releaseMethodValue(info *types.Info, expr ast.Expr) types.Object {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return nil
	}
	return baseObject(info, sel.X)
}

// updateReturns recomputes ReturnsRelease: a result is marked when some
// return statement hands back a release obligation at that position — a
// Release method value, a local carrying an obligation (a received
// release-func), or, when that return carries no func-typed obligation,
// a retained value itself (a successful Retain receiver or a received
// retained value). It reports whether anything changed.
func (fs *FuncSummary) updateReturns(sum *Summaries) bool {
	info := fs.Pkg.Info

	// Locals carrying an obligation within this function.
	carriers := make(map[types.Object]bool) // release-funcs
	retained := make(map[types.Object]bool) // retainable values
	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if obj := condRetainReceiver(info, n.Cond); obj != nil {
				retained[obj] = true
			} else if obj := negRetainReceiver(info, n.Cond); obj != nil && terminates(info, n.Body) {
				// `if !f.Retain() { panic(…) }`: past the guard, where the
				// function goes on, f is retained (core.pinMirror).
				retained[obj] = true
			}
		case *ast.AssignStmt:
			// v = x.Release (method value binding).
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if releaseMethodValue(info, rhs) != nil {
					if obj := identObj(info, n.Lhs[i]); obj != nil {
						carriers[obj] = true
					}
				}
			}
			// v, w := g(...) with g's summary marking results.
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					cs := sum.Of(calleeFunc(info, call))
					if cs != nil {
						for i, ret := range cs.ReturnsRelease {
							if !ret || i >= len(n.Lhs) {
								continue
							}
							if obj := identObj(info, n.Lhs[i]); obj != nil {
								if isReleaseFuncType(obj.Type()) {
									carriers[obj] = true
								} else {
									retained[obj] = true
								}
							}
						}
					}
				}
			}
		}
		return true
	})

	// Per return statement, a release callback among the results is the
	// whole obligation: marking a co-returned retained value too would
	// saddle every caller with a phantom second obligation for the value
	// the callback releases (pin's `return f, f.Release`). Only a
	// return with no callback hands out the retained value itself.
	changed := false
	mark := func(positions []int) {
		for _, i := range positions {
			if !fs.ReturnsRelease[i] {
				fs.ReturnsRelease[i] = true
				changed = true
			}
		}
	}
	ast.Inspect(fs.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != len(fs.ReturnsRelease) {
			return true
		}
		var funcs, values []int
		for i, r := range ret.Results {
			if releaseMethodValue(info, r) != nil {
				funcs = append(funcs, i)
				continue
			}
			if obj := identObj(info, r); obj != nil {
				if carriers[obj] {
					funcs = append(funcs, i)
				} else if retained[obj] {
					values = append(values, i)
				}
			}
		}
		if len(funcs) > 0 {
			mark(funcs)
		} else {
			mark(values)
		}
		return true
	})
	return changed
}

// condRetainReceiver extracts the Retain receiver from an if condition
// of the guard shapes `f.Retain()` and `f != nil && f.Retain()`.
func condRetainReceiver(info *types.Info, cond ast.Expr) types.Object {
	cond = ast.Unparen(cond)
	if bin, ok := cond.(*ast.BinaryExpr); ok && bin.Op == token.LAND {
		if obj := condRetainReceiver(info, bin.Y); obj != nil {
			return obj
		}
		return condRetainReceiver(info, bin.X)
	}
	if call, ok := cond.(*ast.CallExpr); ok {
		return retainCallReceiver(info, call)
	}
	return nil
}

// negRetainReceiver extracts the Retain receiver from the negated guard
// `!f.Retain()`. The obligation lives past the guard, not in its body, so
// condRetainReceiver must not see through the `!`: Save's and the
// benchmark rig's bodies bail out owing nothing.
func negRetainReceiver(info *types.Info, cond ast.Expr) types.Object {
	ue, ok := ast.Unparen(cond).(*ast.UnaryExpr)
	if !ok || ue.Op != token.NOT {
		return nil
	}
	call, ok := ast.Unparen(ue.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	return retainCallReceiver(info, call)
}

// terminates reports whether body ends the function: its last statement
// is a return or a call of panic.
func terminates(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch s := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		return ok && isBuiltinCall(info, call, "panic")
	}
	return false
}

// isBuiltinCall reports whether call invokes the named predeclared
// builtin (go/types records builtins in Uses as *types.Builtin, or not
// at all in older configurations — accept both).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	switch obj := info.Uses[id].(type) {
	case nil:
		return true
	case *types.Builtin:
		return obj.Name() == name
	}
	return false
}

// identObj resolves a plain identifier expression to its object.
func identObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// updateBlocks recomputes Blocks: the function contains (outside nested
// function literals and go bodies) a channel operation with no escape
// edge, or synchronously calls a module function that does. It reports
// whether the flag flipped.
func (fs *FuncSummary) updateBlocks(sum *Summaries) bool {
	if fs.Blocks {
		return false
	}
	buffered := bufferedChans(fs.Pkg.Info, fs.Decl.Body)
	pos, blocks := firstBlockingOp(fs.Pkg.Info, fs.Decl.Body, buffered, sum)
	if blocks {
		fs.Blocks = true
		fs.BlockPos = pos
		return true
	}
	return false
}

// bufferedChans collects channel objects that scope creates with a
// constant non-zero buffer: a send to one is the buffered hand-off
// idiom (`errCh := make(chan error, 1); go func() { errCh <- run() }()`)
// and does not count as indefinitely blocking.
func bufferedChans(info *types.Info, scope ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if scope == nil {
		return out
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				continue
			}
			if !isBuiltinCall(info, call, "make") {
				continue
			}
			tv, ok := info.Types[call.Args[1]]
			if !ok || tv.Value == nil || tv.Value.String() == "0" {
				continue
			}
			if obj := identObj(info, assign.Lhs[i]); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// firstBlockingOp scans body (skipping nested function literals and go
// statements, which do not block the current goroutine) for the first
// channel operation with no escape edge. Escape edges: a select or a
// receive on a Done() channel; a send on a locally buffered channel;
// within selects, only the clause bodies are rescanned.
func firstBlockingOp(info *types.Info, body ast.Node, buffered map[types.Object]bool, sum *Summaries) (token.Pos, bool) {
	var pos token.Pos
	found := false
	report := func(p token.Pos) {
		if !found {
			pos, found = p, true
		}
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SelectStmt:
				if !selectHasEscape(n) {
					report(n.Pos())
					return false
				}
				for _, cl := range n.Body.List {
					cc := cl.(*ast.CommClause)
					for _, st := range cc.Body {
						walk(st)
					}
				}
				return false
			case *ast.SendStmt:
				if obj := baseObject(info, n.Chan); obj != nil && buffered[obj] {
					return true
				}
				report(n.Pos())
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !recvHasEscape(n.X) {
					report(n.Pos())
					return false
				}
			case *ast.RangeStmt:
				if t := info.Types[n.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						report(n.X.Pos())
						return false
					}
				}
			case *ast.CallExpr:
				if cs := sum.Of(calleeFunc(info, n)); cs != nil && cs.Blocks {
					report(n.Pos())
					return false
				}
			}
			return true
		})
	}
	walk(body)
	return pos, found
}

// selectHasEscape reports whether the select has an arm that bounds its
// wait: a receive on a Done() channel.
func selectHasEscape(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		var ch ast.Expr
		switch comm := cl.(*ast.CommClause).Comm.(type) {
		case *ast.ExprStmt:
			if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
				ch = ue.X
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				if ue, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					ch = ue.X
				}
			}
		}
		if ch != nil && recvHasEscape(ch) {
			return true
		}
	}
	return false
}

// recvHasEscape reports whether receiving from ch is a recognized escape
// edge rather than a potentially unbounded park: a ctx.Done()-style call.
func recvHasEscape(ch ast.Expr) bool {
	if call, ok := ast.Unparen(ch).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true // ctx.Done() (or any Done() chan accessor)
		}
	}
	return false
}
