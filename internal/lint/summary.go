package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural function summaries. The original five analyzers are
// intraprocedural (plus ad-hoc wrapper classification in poolbalance);
// the ownership analyzers refbalance and goroleak need to see *through*
// calls: core.PinMirror's `return f, f.Release` hands a pin obligation to
// its caller — whether f is the shared mirror it retained or the private
// one it built on a miss — a callee may discharge one by storing the
// retained value in a field that a teardown method later Releases
// (keep/entry.m/drop in testdata/src/refbalance), and a `go worker(ch)`
// statement blocks wherever worker does. summarize computes, bottom-up over the
// call graph the type-checked module already encodes, one FuncSummary
// per declared function:
//
//   - ReturnsRelease: which results carry a release obligation to the
//     caller — a func() release callback (f.Release as a method value,
//     or a forwarded release-func received from another summarized
//     call) or a retained refcounted value itself;
//   - ReleasesParam: which parameters the function discharges on the
//     caller's behalf — by calling them, by calling Release/RetireFlat
//     on them, by storing them into a tracked teardown field, or by
//     forwarding them to another discharging function;
//   - Spawns: the function's `go` launch sites, with enough context
//     (body or resolved callee, enclosing declaration) for goroleak to
//     judge each one;
//   - Blocks: whether a synchronous call to the function can block
//     forever on a channel operation with no escape edge.
//
// Summaries are computed to a fixpoint (the module's wrapper chains are
// shallow — PinMirror → pinShared → queryDelta is the deepest — but the
// iteration makes depth a non-issue), and both new analyzers read the
// same Summaries object, so the two passes agree on what an ownership
// transfer is.

// FuncSummary is the interprocedural abstract of one declared function.
type FuncSummary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// ReturnsRelease[i] reports that result i hands the caller a release
	// obligation: a func() the caller must invoke (or transfer), or a
	// retained refcounted value the caller must Release (or transfer).
	ReturnsRelease []bool
	// ReleasesParam[i] reports that passing an owned value as parameter i
	// discharges the caller's obligation for it (receiver excluded; the
	// indices match the call's argument list).
	ReleasesParam []bool
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
	// tracked holds struct fields with a teardown site somewhere in the
	// module: a refcounted field some function Releases (Snapshot.flat).
	// Storing an owned value into a tracked field is a legal transfer.
	tracked map[types.Object]bool
	// closed holds channel objects that some function in the module
	// closes; receiving from one is a recognized goroutine escape edge
	// (the close is the wake-up signal).
	closed map[types.Object]bool
}

// Of returns fn's summary, or nil for functions declared outside the
// analyzed packages (stdlib, interface methods without bodies).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[fn]
}

// TrackedField reports whether obj is a struct field with a recognized
// teardown site.
func (s *Summaries) TrackedField(obj types.Object) bool {
	return s != nil && obj != nil && s.tracked[obj]
}

// ClosedChan reports whether some function in the module closes the
// channel held in obj.
func (s *Summaries) ClosedChan(obj types.Object) bool {
	return s != nil && obj != nil && s.closed[obj]
}

// summarize builds the module summary table. The per-function facts are
// recomputed until no summary changes, so facts propagate through
// wrapper chains of any depth regardless of declaration order.
func summarize(pass *Pass) *Summaries {
	sum := &Summaries{
		funcs:   make(map[*types.Func]*FuncSummary),
		tracked: make(map[types.Object]bool),
		closed:  make(map[types.Object]bool),
	}
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
				fs.ReleasesParam = make([]bool, sig.Params().Len())
				sum.funcs[fn] = fs
			}
		}
	}
	sum.scanModuleFacts(pass)
	for _, fs := range sum.funcs {
		fs.collectSpawns()
	}
	for changed := true; changed; {
		changed = false
		for _, fs := range sum.funcs {
			if fs.updateReleases(sum) {
				changed = true
			}
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

// scanModuleFacts records the module-wide point facts the per-function
// passes consult: tracked teardown fields and closed channels.
func (s *Summaries) scanModuleFacts(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// close(x) marks x's channel object closed-somewhere.
				if len(call.Args) == 1 && isBuiltinCall(info, call, "close") {
					if obj := baseObject(info, call.Args[0]); obj != nil {
						s.closed[obj] = true
					}
				}
				// x.f.Release() / x.f.RetireFlat() marks the refcounted
				// field f as having a teardown site.
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isReleaseName(sel.Sel.Name) {
					if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
						if selection, ok := info.Selections[inner]; ok && selection.Kind() == types.FieldVal {
							s.tracked[selection.Obj()] = true
						}
					}
				}
				return true
			})
		}
	}
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

// isReleaseName reports whether name is one of the house teardown
// method names of the refcount protocol.
func isReleaseName(name string) bool {
	return name == "Release" || name == "RetireFlat"
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

// releaseCallTarget returns the object whose refcount a Release or
// RetireFlat call drops (x in x.Release()), or nil.
func releaseCallTarget(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isReleaseName(sel.Sel.Name) || len(call.Args) != 0 {
		return nil
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return nil
	}
	return baseObject(info, sel.X)
}

// releaseMethodValue returns the object x when expr is the method value
// x.Release or x.RetireFlat (not called), or nil.
func releaseMethodValue(info *types.Info, expr ast.Expr) types.Object {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || !isReleaseName(sel.Sel.Name) {
		return nil
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return nil
	}
	return baseObject(info, sel.X)
}

// paramObjects lists fd's parameter objects in signature order
// (anonymous parameters contribute nil placeholders).
func paramObjects(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// updateReleases recomputes ReleasesParam; it reports whether anything
// changed (the fixpoint driver's signal).
func (fs *FuncSummary) updateReleases(sum *Summaries) bool {
	info := fs.Pkg.Info
	params := paramObjects(info, fs.Decl)
	changed := false
	for i, p := range params {
		if p == nil || fs.ReleasesParam[i] {
			continue
		}
		if !isReleaseFuncType(p.Type()) && !isRetainableType(p.Type()) {
			continue
		}
		if funcDischargesObj(info, fs.Decl.Body, p, sum) {
			fs.ReleasesParam[i] = true
			changed = true
		}
	}
	return changed
}

// funcDischargesObj reports whether body contains a discharge of obj:
// calling it, releasing it, storing it into a tracked field, or
// forwarding it to a function whose summary discharges that parameter.
func funcDischargesObj(info *types.Info, body ast.Node, obj types.Object, sum *Summaries) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callDischargesObj(info, n, obj, sum) {
				found = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if id, ok := ast.Unparen(n.Rhs[i]).(*ast.Ident); ok && info.Uses[id] == obj {
					if fieldObjOf(info, lhs) != nil && sum.TrackedField(fieldObjOf(info, lhs)) {
						found = true
					}
				}
			}
		case *ast.CompositeLit:
			if litStoresObjTracked(info, n, obj, sum) {
				found = true
			}
		}
		return !found
	})
	return found
}

// callDischargesObj reports whether call discharges obj: obj(),
// obj.Release(), obj.RetireFlat(), or g(..., obj, ...) with g's summary
// releasing that parameter.
func callDischargesObj(info *types.Info, call *ast.CallExpr, obj types.Object, sum *Summaries) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] == obj {
		return true // obj()
	}
	if releaseCallTarget(info, call) == obj {
		return true // obj.Release() / obj.RetireFlat()
	}
	callee := calleeFunc(info, call)
	cs := sum.Of(callee)
	if cs == nil {
		return false
	}
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
			if i < len(cs.ReleasesParam) && cs.ReleasesParam[i] {
				return true
			}
		}
	}
	return false
}

// fieldObjOf resolves expr to a struct-field object when expr is a
// field selection lvalue, else nil.
func fieldObjOf(info *types.Info, expr ast.Expr) types.Object {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		return selection.Obj()
	}
	return nil
}

// litStoresObjTracked reports whether the composite literal stores obj
// into a tracked field (keyed entries only; the house style always keys
// struct literals that carry ownership).
func litStoresObjTracked(info *types.Info, lit *ast.CompositeLit, obj types.Object, sum *Summaries) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(kv.Value).(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && sum.TrackedField(info.Uses[key]) {
			return true
		}
	}
	return false
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
	// the callback releases (PinMirror's `return f, f.Release`). Only a
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
// channel operation with no escape edge. Escape edges: a select with a
// default clause or a cancellation arm (ctx.Done(), a timer channel, or
// a receive on a channel the module closes); a send on a locally
// buffered channel; a receive or range on a channel the module closes;
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
				if !selectHasEscape(info, n, sum) {
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
				if n.Op == token.ARROW && !recvHasEscape(info, n.X, sum) {
					report(n.Pos())
					return false
				}
			case *ast.RangeStmt:
				if t := info.Types[n.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						if obj := baseObject(info, n.X); obj == nil || !sum.ClosedChan(obj) {
							report(n.X.Pos())
							return false
						}
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
// wait: a default clause, or a receive on a cancellation-shaped channel.
func selectHasEscape(info *types.Info, sel *ast.SelectStmt, sum *Summaries) bool {
	for _, cl := range sel.Body.List {
		cc := cl.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default: non-blocking
		}
		var ch ast.Expr
		switch comm := cc.Comm.(type) {
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
		if ch != nil && recvHasEscape(info, ch, sum) {
			return true
		}
	}
	return false
}

// recvHasEscape reports whether receiving from ch is a recognized
// escape edge rather than a potentially unbounded park: ctx.Done()-style
// calls, timer channels, and channels the module closes.
func recvHasEscape(info *types.Info, ch ast.Expr, sum *Summaries) bool {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true // ctx.Done() (or any Done() chan accessor)
		}
		if isPkgCall(info, call, "time", "After", "Tick") {
			return true
		}
		return false
	}
	// Timer/Ticker C fields fire on their own.
	if sel, ok := ch.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
		if path, name, ok := namedPathName(info.Types[sel.X].Type); ok && path == "time" && (name == "Timer" || name == "Ticker") {
			return true
		}
	}
	obj := baseObject(info, ch)
	return obj != nil && sum.ClosedChan(obj)
}
