package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Poolbalance enforces the drained-scratch-pool rule: a value acquired
// from a sync.Pool must reach a Put on every return path, or be dropped
// only through the documented cancel-drop idiom — a Put guarded by an
// error-nil check (`if canceled == nil { put(scr) }`), which is how a
// canceled RunPush deliberately abandons un-drained scratch.
//
// The analyzer understands the project's wrapper idiom: a function that
// returns the result of pool.Get is a getter (ownership transfers to
// its caller, who is then checked); a function that Puts its parameter
// is a putter (calling it counts as a Put). Values that escape the
// function some other way (returned, sent, assigned through a field,
// index or pointer, passed to a non-putter call) transfer ownership and
// are not tracked further. Placing the value in a composite literal held
// by a local transfers nothing: the local is not tracked, so the value
// must still reach a Put. A Put inside a loop, switch or select body does
// not count: the body may not run.
var Poolbalance = &Analyzer{
	Name: "poolbalance",
	Doc:  "sync.Pool acquisitions must reach a Put (or the documented cancel-drop) on all return paths",
	Run:  runPoolbalance,
}

// isPoolMethod reports whether call is pool.Get or pool.Put on a
// sync.Pool value.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.Types[sel.X].Type
	if t == nil {
		return false
	}
	path, tname, ok := namedPathName(t)
	return ok && path == "sync" && tname == "Pool"
}

func runPoolbalance(pass *Pass) {
	// Phase 1: classify wrapper functions module-wide.
	getters := make(map[*types.Func]bool)
	putters := make(map[*types.Func]bool)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				if funcIsGetter(pkg.Info, fd) {
					getters[obj] = true
				}
				if funcIsPutter(pkg.Info, fd) {
					putters[obj] = true
				}
			}
		}
	}

	// Phase 2: check every function that acquires.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil && getters[obj] {
					continue // getters transfer ownership to their caller
				}
				checkFuncBalance(pass, pkg, fd, getters, putters)
			}
		}
	}
}

// funcIsGetter reports whether fd returns a value obtained from
// pool.Get (possibly via a type assertion) — the getter-wrapper shape.
func funcIsGetter(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	// Variables holding (a type assertion of) a Get result.
	got := make(map[types.Object]bool)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				e := ast.Unparen(rhs)
				if ta, ok := e.(*ast.TypeAssertExpr); ok {
					e = ast.Unparen(ta.X)
				}
				call, ok := e.(*ast.CallExpr)
				if !ok || !isPoolMethod(info, call, "Get") {
					continue
				}
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := info.Defs[id]; obj != nil {
							got[obj] = true
						} else if obj := info.Uses[id]; obj != nil {
							got[obj] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				e := ast.Unparen(r)
				if ta, ok := e.(*ast.TypeAssertExpr); ok {
					e = ast.Unparen(ta.X)
				}
				if call, ok := e.(*ast.CallExpr); ok && isPoolMethod(info, call, "Get") {
					found = true
				}
				if id, ok := e.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && got[obj] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// funcIsPutter reports whether fd passes one of its parameters to
// pool.Put — the putter-wrapper shape.
func funcIsPutter(info *types.Info, fd *ast.FuncDecl) bool {
	params := make(map[types.Object]bool)
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPoolMethod(info, call, "Put") || len(call.Args) == 0 {
			return !found
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && params[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// acquisition is one tracked pool value within a function.
type acquisition struct {
	obj types.Object
	pos token.Pos
}

// checkFuncBalance tracks acquisitions inside one function body (and
// separately inside each of its function literals).
func checkFuncBalance(pass *Pass, pkg *Package, fd *ast.FuncDecl, getters, putters map[*types.Func]bool) {
	bc := &balanceChecker{pass: pass, pkg: pkg, getters: getters, putters: putters}
	bc.checkBody(fd.Body, fd.Name.Name)
}

type balanceChecker struct {
	pass    *Pass
	pkg     *Package
	getters map[*types.Func]bool
	putters map[*types.Func]bool
}

// isAcquire returns the acquired call when e is a pool.Get or a getter
// call (unwrapping a type assertion).
func (bc *balanceChecker) isAcquire(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if isPoolMethod(bc.pkg.Info, call, "Get") {
		return call
	}
	if f := calleeFunc(bc.pkg.Info, call); f != nil && bc.getters[f] {
		return call
	}
	return nil
}

// isRelease reports whether call releases obj: pool.Put(obj) or
// putter(obj) (obj anywhere in the arguments).
func (bc *balanceChecker) isRelease(call *ast.CallExpr, obj types.Object) bool {
	isPut := isPoolMethod(bc.pkg.Info, call, "Put")
	if !isPut {
		f := calleeFunc(bc.pkg.Info, call)
		if f == nil || !bc.putters[f] {
			return false
		}
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if bc.pkg.Info.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}

// escapes reports whether stmt hands obj to something other than a
// release: returned, assigned through a field/index/pointer, sent on a
// channel, or passed to an unrelated call. Ownership moves, so tracking
// stops (released=true).
func (bc *balanceChecker) escapes(stmt ast.Stmt, obj types.Object) bool {
	esc := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if bc.mentions(r, obj) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if bc.mentions(n.Value, obj) {
				esc = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && bc.mentions(n.Rhs[i], obj) {
					if _, plain := lhs.(*ast.Ident); !plain {
						esc = true // stored through a field/index/pointer
					}
				}
			}
		case *ast.CallExpr:
			if bc.isRelease(n, obj) || bc.isAcquire(n) != nil {
				return true
			}
			for _, arg := range n.Args {
				if bc.mentions(arg, obj) {
					esc = true
				}
			}
		}
		return !esc
	})
	return esc
}

// mentions reports whether the bare identifier for obj appears in expr
// (field selections like obj.f do not transfer ownership and are
// excluded by checking only direct identifier operands).
func (bc *balanceChecker) mentions(expr ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && bc.pkg.Info.Uses[id] == obj
}

// checkBody finds acquisitions at any nesting depth of body and runs
// the path analysis for each from its statement onward. Function
// literals are analyzed as their own bodies.
func (bc *balanceChecker) checkBody(body *ast.BlockStmt, fname string) {
	var walkStmts func(stmts []ast.Stmt)
	walkStmts = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			if assign, ok := stmt.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 {
				if call := bc.isAcquire(assign.Rhs[0]); call != nil {
					if obj := bc.assignTarget(assign); obj != nil {
						bc.checkPaths(acquisition{obj: obj, pos: call.Pos()}, stmts[i+1:], fname)
					}
				}
			}
			// Recurse into nested blocks to find acquisitions there too.
			switch s := stmt.(type) {
			case *ast.BlockStmt:
				walkStmts(s.List)
			case *ast.IfStmt:
				walkStmts(s.Body.List)
				if eb, ok := s.Else.(*ast.BlockStmt); ok {
					walkStmts(eb.List)
				} else if ei, ok := s.Else.(*ast.IfStmt); ok {
					walkStmts([]ast.Stmt{ei})
				}
			case *ast.ForStmt:
				walkStmts(s.Body.List)
			case *ast.RangeStmt:
				walkStmts(s.Body.List)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walkStmts(cc.Body)
					}
				}
			}
		}
		// Function literals anywhere in these statements get their own
		// analysis scope.
		for _, stmt := range stmts {
			ast.Inspect(stmt, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					bc.checkBody(fl.Body, fname+" (func literal)")
					return false
				}
				return true
			})
		}
	}
	walkStmts(body.List)
}

// assignTarget returns the single new variable an acquisition is bound
// to, or nil when the shape is not trackable.
func (bc *balanceChecker) assignTarget(assign *ast.AssignStmt) types.Object {
	for _, lhs := range assign.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := bc.pkg.Info.Defs[id]; obj != nil {
			return obj
		}
		if obj := bc.pkg.Info.Uses[id]; obj != nil {
			return obj
		}
	}
	return nil
}

// pathState is the abstract state of one acquisition along a path.
type pathState struct {
	released bool
}

// checkPaths walks the statements following an acquisition, verifying a
// release on every path that exits the function.
func (bc *balanceChecker) checkPaths(acq acquisition, rest []ast.Stmt, fname string) {
	st := pathState{}
	terminated := bc.walkSeq(acq, rest, &st, fname)
	if !terminated && !st.released {
		bc.pass.Reportf(acq.pos,
			"pool value acquired here never reaches a Put before %s ends; recycle it (or drop it behind an error-nil guard, the documented cancel-drop)", fname)
	}
}

// walkSeq processes a statement sequence, returning true when the
// sequence definitely terminates the function (so the caller need not
// check the fallthrough exit).
func (bc *balanceChecker) walkSeq(acq acquisition, stmts []ast.Stmt, st *pathState, fname string) bool {
	for _, stmt := range stmts {
		if st.released {
			return false // balanced; nothing further to verify on this path
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && bc.isRelease(call, acq.obj) {
				st.released = true
				continue
			}
		case *ast.DeferStmt:
			if bc.isRelease(s.Call, acq.obj) {
				st.released = true
				continue
			}
		case *ast.ReturnStmt:
			if bc.escapes(s, acq.obj) {
				st.released = true
				return true
			}
			bc.pass.Reportf(s.Pos(),
				"return leaks the pool value acquired at %s (no Put on this path); add a Put before returning or guard the drop on an error-nil check",
				bc.pass.Fset.Position(acq.pos))
			return true
		case *ast.IfStmt:
			if bc.errGuardedRelease(s, acq.obj) {
				// The documented cancel-drop: `if err == nil { put(x) }`.
				// The other side deliberately drops the scratch.
				st.released = true
				continue
			}
			thenSt := *st
			thenTerm := bc.walkSeq(acq, s.Body.List, &thenSt, fname)
			elseSt := *st
			elseTerm := false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseTerm = bc.walkSeq(acq, e.List, &elseSt, fname)
			case *ast.IfStmt:
				elseTerm = bc.walkSeq(acq, []ast.Stmt{e}, &elseSt, fname)
			}
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				*st = elseSt
			case elseTerm:
				*st = thenSt
			default:
				st.released = thenSt.released && elseSt.released
			}
		case *ast.BlockStmt:
			if bc.walkSeq(acq, s.List, st, fname) {
				return true
			}
		}
		if !st.released && bc.escapes(stmt, acq.obj) {
			st.released = true // ownership transferred
		}
	}
	return false
}

// errGuardedRelease matches the cancel-drop idiom: `if err == nil {
// put(x) }` for an error-typed err.
func (bc *balanceChecker) errGuardedRelease(s *ast.IfStmt, obj types.Object) bool {
	bin, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	errSide := bin.X
	if isNilIdent(bin.X) {
		errSide = bin.Y
	} else if !isNilIdent(bin.Y) {
		return false
	}
	if t := bc.pkg.Info.Types[errSide].Type; !isErrorType(t) {
		return false
	}
	found := false
	for _, stmt := range s.Body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && bc.isRelease(call, obj) {
				found = true
			}
			return !found
		})
	}
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
