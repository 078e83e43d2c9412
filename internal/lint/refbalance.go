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
// Recognized discharges:
//
//   - calling the release-func (directly, deferred, or via `go`);
//   - calling Release/RetireFlat on the retained value;
//   - retargeting (`pin = f.Release`) — the obligation moves to pin;
//   - forwarding to a callee whose summary releases that parameter
//     (the golden fixture's keep and finish; the real tree currently has
//     no such callee);
//   - returning the carrier (ownership transfers to the caller, whose
//     own body is then checked against the producer's summary);
//   - storing the retained value into a tracked teardown field or
//     sending the carrier on a channel (hand-off).
//
// The error-result waiver mirrors the house contract of pinShared: on a
// path guarded by `err != nil` for the err returned alongside the
// obligation, the producer already released internally, so the caller
// owes nothing there.
var Refbalance = &Analyzer{
	Name: "refbalance",
	Doc:  "successful Retain()s and received release-funcs must reach Release/RetireFlat or a recognized ownership transfer on all paths",
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
// function: obj is the current carrier (it changes on retarget), errObj
// the error result born by the same call (enabling the waiver), inLoop
// softens the verdict to a whole-function scan when the birth sits
// inside irregular control flow.
type refOb struct {
	obj      types.Object
	pos      token.Pos
	what     string
	errObj   types.Object
	inLoop   bool
	released bool
}

type refChecker struct {
	pass *Pass
	pkg  *Package
	sum  *Summaries
	fd   *ast.FuncDecl
}

// checkRefFunc finds every obligation birth in fd (retain-guards,
// bare Retain calls, calls with summarized release results) and walks
// each through its continuation.
func checkRefFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl, sum *Summaries) {
	info := pkg.Info
	rc := &refChecker{pass: pass, pkg: pkg, sum: sum, fd: fd}
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if obj := condRetainReceiver(info, n.Cond); obj != nil {
				// `if f.Retain() { ... }`: the obligation exists in the
				// then-branch and whatever continues after the if.
				segs, inLoop := continuationFrom(stack, n)
				segs = append([][]ast.Stmt{n.Body.List}, segs...)
				rc.track(&refOb{obj: obj, pos: n.Cond.Pos(), what: "retained value", inLoop: inLoop}, segs)
				break
			}
			if ue, ok := ast.Unparen(n.Cond).(*ast.UnaryExpr); ok && ue.Op == token.NOT {
				if call, ok := ast.Unparen(ue.X).(*ast.CallExpr); ok {
					if obj := retainCallReceiver(info, call); obj != nil {
						// `if !f.Retain() { bail }`: the obligation lives on
						// the fallthrough path only.
						segs, inLoop := continuationFrom(stack, n)
						rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value", inLoop: inLoop}, segs)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if obj := retainCallReceiver(info, call); obj != nil {
					segs, inLoop := continuationFrom(stack, n)
					rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value", inLoop: inLoop}, segs)
				}
			}
		case *ast.AssignStmt:
			rc.birthFromCall(n, stack)
		}
		return true
	})
}

// birthFromCall births obligations from `lhs... := call(...)` when the
// callee's summary marks results as release-carrying, or when the call
// is itself a Retain (`ok := f.Retain()`).
func (rc *refChecker) birthFromCall(n *ast.AssignStmt, stack []ast.Node) {
	info := rc.pkg.Info
	if len(n.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if obj := retainCallReceiver(info, call); obj != nil {
		segs, inLoop := continuationFrom(stack, n)
		rc.track(&refOb{obj: obj, pos: call.Pos(), what: "retained value", inLoop: inLoop}, segs)
		return
	}
	cs := rc.sum.Of(calleeFunc(info, call))
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
		segs, inLoop := continuationFrom(stack, n)
		rc.track(&refOb{
			obj: obj, pos: call.Pos(),
			what:   "release obligation from " + cs.Fn.Name(),
			errObj: errObj, inLoop: inLoop,
		}, segs)
	}
}

// continuationFrom computes the statement sequence that executes after
// child, as segments from innermost enclosing block outward, stopping
// at the nearest function boundary (a literal's obligations never leak
// into its lexical parent). inLoop reports whether a loop sits between
// child and the boundary, in which case linear path reasoning is
// unsound and the caller falls back to a whole-function scan.
func continuationFrom(stack []ast.Node, child ast.Node) (segs [][]ast.Stmt, inLoop bool) {
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
		case *ast.ForStmt, *ast.RangeStmt:
			inLoop = true
		case *ast.FuncLit, *ast.FuncDecl:
			return segs, inLoop
		}
		cur = stack[i]
	}
	return segs, inLoop
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
	if ob.released {
		return
	}
	if ob.inLoop && (funcDischargesObj(rc.pkg.Info, rc.fd.Body, ob.obj, rc.sum) ||
		returnsMention(rc.pkg.Info, rc.fd.Body, ob.obj)) {
		return // optimistic under irregular control flow
	}
	rc.pass.Reportf(ob.pos,
		"%s is never discharged on some path through %s; call its release, return it, or store it in a tracked teardown field",
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
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && callDischargesObj(info, call, ob.obj, rc.sum) {
				ob.released = true
			}
		case *ast.DeferStmt:
			if callDischargesObj(info, s.Call, ob.obj, rc.sum) {
				ob.released = true
			}
		case *ast.GoStmt:
			if callDischargesObj(info, s.Call, ob.obj, rc.sum) {
				ob.released = true
			}
		case *ast.SendStmt:
			if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && info.Uses[id] == ob.obj {
				ob.released = true // channel hand-off transfers ownership
			}
		case *ast.AssignStmt:
			rc.assignStep(ob, s)
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
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Optimistic inside irregular control flow: any discharge or
			// carrying return in there satisfies the path.
			if funcDischargesObj(info, stmt, ob.obj, rc.sum) || returnsMention(info, stmt, ob.obj) {
				ob.released = true
			}
		case *ast.BranchStmt:
			// break/continue/goto end linear reasoning; fall back to the
			// whole-function scan.
			if funcDischargesObj(info, rc.fd.Body, ob.obj, rc.sum) || returnsMention(info, rc.fd.Body, ob.obj) {
				ob.released = true
			}
			return true
		}
	}
	return false
}

// assignStep applies one assignment to the obligation: retargets
// (`pin = f.Release`), stores of the retained value into a tracked field,
// discharging call results, and composite-literal stores into tracked
// fields.
func (rc *refChecker) assignStep(ob *refOb, s *ast.AssignStmt) {
	info := rc.pkg.Info
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if releaseMethodValue(info, rhs) == ob.obj && ob.obj != nil {
			if obj := identObj(info, s.Lhs[i]); obj != nil {
				ob.obj = obj // obligation moves to the bound release-func
				continue
			}
		}
		if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && info.Uses[id] == ob.obj {
			if fo := fieldObjOf(info, s.Lhs[i]); fo != nil && rc.sum.TrackedField(fo) {
				ob.released = true
			}
			continue
		}
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && callDischargesObj(info, call, ob.obj, rc.sum) {
			ob.released = true
			continue
		}
		lit, ok := ast.Unparen(rhs).(*ast.CompositeLit)
		if !ok {
			if ue, isAddr := ast.Unparen(rhs).(*ast.UnaryExpr); isAddr && ue.Op == token.AND {
				lit, ok = ast.Unparen(ue.X).(*ast.CompositeLit)
			}
		}
		if ok && lit != nil && litStoresObjTracked(info, lit, ob.obj, rc.sum) {
			ob.released = true
		}
	}
}

// ifStep walks both sides of an if with copied states and joins them,
// applying the error-result waiver when the condition tests ob's
// companion error against nil.
func (rc *refChecker) ifStep(ob *refOb, s *ast.IfStmt) bool {
	thenWaived, elseWaived := false, false
	if ob.errObj != nil {
		switch errNilSide(rc.pkg.Info, s.Cond, ob.errObj) {
		case token.NEQ: // if err != nil { ... }: then is the error path
			thenWaived = true
		case token.EQL: // if err == nil { ... }: the (implicit) else is
			elseWaived = true
		}
	}
	thenSt := *ob
	if thenWaived {
		thenSt.released = true
	}
	thenTerm := rc.walkSeq(&thenSt, s.Body.List)
	elseSt := *ob
	if elseWaived {
		elseSt.released = true
	}
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
		merged := *ob
		merged.released = thenSt.released && elseSt.released
		if thenSt.obj != ob.obj {
			merged.obj = thenSt.obj // a branch retargeted the carrier
		} else if elseSt.obj != ob.obj {
			merged.obj = elseSt.obj
		}
		*ob = merged
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
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && callDischargesObj(info, call, obj, rc.sum) {
			return true
		}
	}
	return false
}

// returnsMention reports whether any return under n (outside nested
// function literals) carries obj.
func returnsMention(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			if releaseMethodValue(info, r) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// errNilSide classifies cond as a nil test of errObj: token.NEQ for
// `err != nil`, token.EQL for `err == nil`, token.ILLEGAL otherwise.
func errNilSide(info *types.Info, cond ast.Expr, errObj types.Object) token.Token {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return token.ILLEGAL
	}
	var side ast.Expr
	switch {
	case isNilIdent(bin.Y):
		side = bin.X
	case isNilIdent(bin.X):
		side = bin.Y
	default:
		return token.ILLEGAL
	}
	if id, ok := ast.Unparen(side).(*ast.Ident); ok && info.Uses[id] == errObj {
		return bin.Op
	}
	return token.ILLEGAL
}
