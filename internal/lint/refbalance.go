package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Refbalance enforces the mirror pin protocol interprocedurally: every
// successful Flat.Retain() and every received release obligation (a
// release-func result of a summarized call, e.g. core.pin's, which hands
// out the mirrors it retained with their release) must reach a discharge
// on all paths out of the function.
// Recognized discharges, each as a statement of its own or deferred:
//
//   - calling the release-func;
//   - calling Release on the retained value;
//   - returning the carrier or its Release method value (ownership
//     transfers to the caller, whose own body is then checked against the
//     producer's summary).
//
// Nothing inside a loop, switch or select discharges an obligation born
// outside it (the body may not run), and break/continue/goto end the path
// being followed. The error-result waiver mirrors the house contract of
// pinShared: on a path guarded by `err != nil` for the err returned
// alongside the obligation, the producer already released internally, so
// the caller owes nothing there (core's QueryAtCtx after barrier.pinAt).
var Refbalance = &Analyzer{
	Name: "refbalance",
	Doc:  "successful Retain()s and received release-funcs must reach their Release or be returned on all paths",
	Run:  runRefbalance,
}

func runRefbalance(pass *Pass) {
	sum := summarize(pass)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkRefFunc(pass, pkg, fd, sum)
			}
		}
	}
}

// refOb is one live obligation being walked along the paths of a
// function: obj is its carrier, errObj the error result born by the same
// call (enabling the waiver).
type refOb struct {
	obj      types.Object
	pos      token.Pos
	what     string
	errObj   types.Object
	released bool
}

type refChecker struct {
	pass *Pass
	pkg  *Package
	fd   *ast.FuncDecl
}

// checkRefFunc finds every obligation birth in fd (retain-guards,
// bare Retain calls, calls with summarized release results) and walks
// each through its continuation.
func checkRefFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl, sum *Summaries) {
	info := pkg.Info
	rc := &refChecker{pass: pass, pkg: pkg, fd: fd}
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if obj := condRetainReceiver(info, n.Cond); obj != nil {
				// `if f.Retain() { ... }`: the obligation exists in the
				// then-branch and whatever continues after the if.
				segs := append([][]ast.Stmt{n.Body.List}, continuationFrom(stack, n)...)
				rc.track(&refOb{obj: obj, pos: n.Cond.Pos(), what: "retained value"}, segs)
				break
			}
			if ue, ok := ast.Unparen(n.Cond).(*ast.UnaryExpr); ok && ue.Op == token.NOT {
				if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
					if obj := retainCallReceiver(info, call); obj != nil {
						// `if !f.Retain() { bail }`: the obligation lives on
						// the fallthrough path only.
						rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value"}, continuationFrom(stack, n))
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if obj := retainCallReceiver(info, call); obj != nil {
					rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value"}, continuationFrom(stack, n))
				}
			}
		case *ast.AssignStmt:
			rc.birthFromCall(n, stack, sum)
		}
		return true
	})
}

// birthFromCall births obligations from `lhs... := call(...)` when the
// callee's summary marks results as release-carrying, or when the call
// is itself a Retain (`ok := f.Retain()`).
func (rc *refChecker) birthFromCall(n *ast.AssignStmt, stack []ast.Node, sum *Summaries) {
	info := rc.pkg.Info
	if len(n.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if obj := retainCallReceiver(info, call); obj != nil {
		rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value"}, continuationFrom(stack, n))
		return
	}
	cs := sum.Of(calleeFunc(info, call))
	if cs == nil {
		return
	}
	anyMarked := false
	for _, m := range cs.ReturnsRelease {
		anyMarked = anyMarked || m
	}
	if !anyMarked {
		return
	}
	var errObj types.Object
	for _, lhs := range n.Lhs {
		if obj := identObj(info, lhs); obj != nil && isErrorType(obj.Type()) {
			errObj = obj
		}
	}
	for i, marked := range cs.ReturnsRelease {
		if !marked || i >= len(n.Lhs) {
			continue
		}
		obj := identObj(info, n.Lhs[i])
		if obj == nil {
			if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				rc.pass.Reportf(call.Pos(),
					"call to %s discards the release obligation carried by result %d; bind it and discharge it",
					cs.Fn.Name(), i)
			}
			continue
		}
		rc.track(&refOb{
			obj: obj, pos: call.Pos(),
			what:   "release obligation from " + cs.Fn.Name(),
			errObj: errObj,
		}, continuationFrom(stack, n))
	}
}

// continuationFrom computes the statement sequence that executes after
// child, as segments from innermost enclosing block outward, stopping
// at the nearest function boundary (a literal's obligations never leak
// into its lexical parent). Past an enclosing loop it follows the path
// that leaves the loop.
func continuationFrom(stack []ast.Node, child ast.Node) (segs [][]ast.Stmt) {
	cur := child
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.BlockStmt:
			for j, s := range a.List {
				if s == cur {
					segs = append(segs, a.List[j+1:])
					break
				}
			}
		case *ast.CaseClause:
			for j, s := range a.Body {
				if s == cur {
					segs = append(segs, a.Body[j+1:])
					break
				}
			}
		case *ast.CommClause:
			for j, s := range a.Body {
				if s == cur {
					segs = append(segs, a.Body[j+1:])
					break
				}
			}
		case *ast.FuncLit, *ast.FuncDecl:
			return segs
		}
		cur = stack[i]
	}
	return segs
}

// track walks one obligation through its continuation segments and
// reports if no path discharges it.
func (rc *refChecker) track(ob *refOb, segs [][]ast.Stmt) {
	for _, seg := range segs {
		if rc.walkSeq(ob, seg) {
			return // every remaining path terminated (reported or released)
		}
		if ob.released {
			return
		}
	}
	rc.pass.Reportf(ob.pos,
		"%s is never discharged on some path through %s; call its release or return it",
		ob.what, rc.fd.Name.Name)
}

// walkSeq advances ob through stmts, returning true when every path of
// the sequence terminates the function (so callers skip the fallthrough
// exit).
func (rc *refChecker) walkSeq(ob *refOb, stmts []ast.Stmt) bool {
	info := rc.pkg.Info
	for _, stmt := range stmts {
		if ob.released {
			return false
		}
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && callDischargesObj(info, call, ob.obj) {
				ob.released = true
			}
		case *ast.DeferStmt:
			if callDischargesObj(info, s.Call, ob.obj) {
				ob.released = true
			}
		case *ast.ReturnStmt:
			if rc.returnCarries(s, ob.obj) {
				ob.released = true
				return true
			}
			rc.pass.Reportf(s.Pos(),
				"return leaks the %s born at %s (no release on this path)",
				ob.what, rc.pass.Fset.Position(ob.pos))
			return true
		case *ast.IfStmt:
			if rc.ifStep(ob, s) {
				return true
			}
		case *ast.BlockStmt:
			if rc.walkSeq(ob, s.List) {
				return true
			}
		case *ast.BranchStmt:
			return true // break/continue/goto: the path is not followed further
		}
	}
	return false
}

// ifStep walks both sides of an if with copied states and joins them,
// applying the error-result waiver to the then-branch of `if err != nil`
// for ob's companion error.
func (rc *refChecker) ifStep(ob *refOb, s *ast.IfStmt) bool {
	thenSt := *ob
	thenSt.released = ob.errObj != nil && errNonNil(rc.pkg.Info, s.Cond, ob.errObj)
	thenTerm := rc.walkSeq(&thenSt, s.Body.List)
	elseSt := *ob
	elseTerm := false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseTerm = rc.walkSeq(&elseSt, e.List)
	case *ast.IfStmt:
		elseTerm = rc.ifStep(&elseSt, e)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*ob = elseSt
	case elseTerm:
		*ob = thenSt
	default:
		ob.released = thenSt.released && elseSt.released
	}
	return false
}

// returnCarries reports whether ret hands ob's carrier (or its Release
// method value) back to the caller.
func (rc *refChecker) returnCarries(ret *ast.ReturnStmt, obj types.Object) bool {
	info := rc.pkg.Info
	for _, r := range ret.Results {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
			return true
		}
		if releaseMethodValue(info, r) == obj {
			return true
		}
	}
	return false
}

// callDischargesObj reports whether call discharges obj: obj() or
// obj.Release().
func callDischargesObj(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] == obj {
		return true
	}
	return releaseCallTarget(info, call) == obj
}

// errNonNil reports whether cond is `err != nil` (either way round) for
// errObj.
func errNonNil(info *types.Info, cond ast.Expr, errObj types.Object) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	side := bin.X
	if isNilIdent(bin.X) {
		side = bin.Y
	} else if !isNilIdent(bin.Y) {
		return false
	}
	id, ok := ast.Unparen(side).(*ast.Ident)
	return ok && info.Uses[id] == errObj
}
