package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Lockscope forbids holding an engine/core lock across an operation
// that can block indefinitely: channel sends/receives, select, Wait
// (sync.WaitGroup / sync.Cond), time.Sleep, and the system's query/
// update entry points. A select with a default clause is exempt — it
// cannot block by construction (the subscription fan-out's
// lossy-delivery sends are the motivating case) — though its clause
// bodies are still checked. The engine's three runtime activities execute
// exclusively in series (§5); a lock held across a blocking operation
// turns that serialization into a latent deadlock under the serving
// layer's concurrency.
//
// Scope: packages internal/engine and internal/core (by import path or
// package name). In core that covers the evaluator's lock, which the
// writer's window and the readers share, the barrier's ring lock, and the
// System's apply token (a buffered channel), which serializes writers and
// must never be acquired under a mutex. The serving layer is out of scope:
// it holds no lock across the System's entry points.
//
// The analysis is intra-procedural and lexical: a lock is held from
// x.Lock()/x.RLock() until the matching x.Unlock()/x.RUnlock() in the
// same statement sequence; defer x.Unlock() keeps it held to the end of
// the function. Function literals get a fresh (empty) lock state: a
// goroutine body does not inherit the spawner's critical section.
var Lockscope = &Analyzer{
	Name: "lockscope",
	Doc:  "engine/core locks must not be held across blocking operations (channel ops, Wait, query entry points)",
	Run:  runLockscope,
}

// lockscopeInScope reports whether the package is subject to the rule.
func lockscopeInScope(pkg *Package) bool {
	if strings.Contains(pkg.Path, "internal/engine") || strings.Contains(pkg.Path, "internal/core") {
		return true
	}
	name := pkg.Pkg.Name()
	return name == "engine" || name == "core"
}

func runLockscope(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		if !lockscopeInScope(pkg) {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					ls := &lockState{pass: pass, pkg: pkg}
					ls.walkBlock(fd.Body.List, map[string]token.Pos{})
				}
			}
		}
	}
}

type lockState struct {
	pass *Pass
	pkg  *Package
}

// mutexCall matches x.Lock / x.RLock / x.Unlock / x.RUnlock on a
// sync.Mutex or sync.RWMutex and returns the lock's key (the rendered
// receiver expression) plus which operation it is.
func (ls *lockState) mutexCall(call *ast.CallExpr) (key string, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	recv := ls.pkg.Info.Types[sel.X].Type
	if recv == nil {
		return "", "", false
	}
	path, name, named := namedPathName(recv)
	if !named || path != "sync" || (name != "Mutex" && name != "RWMutex") {
		return "", "", false
	}
	return exprText(sel.X), sel.Sel.Name, true
}

// walkBlock processes one statement sequence with the current set of
// held locks (key -> Lock position). Branch bodies get copies; the
// conservative merge keeps a lock held after a branch unless the
// straight-line sequence itself unlocked it.
func (ls *lockState) walkBlock(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, op, ok := ls.mutexCall(call); ok {
					switch op {
					case "Lock", "RLock":
						held[key] = call.Pos()
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
			ls.checkStmt(stmt, held)
		case *ast.DeferStmt:
			// defer x.Unlock() keeps the lock held for the remainder of
			// the function; any later blocking op still runs under it,
			// so the held set is deliberately not reduced.
			if _, _, ok := ls.mutexCall(s.Call); ok {
				continue
			}
			ls.checkStmt(stmt, held)
		case *ast.IfStmt:
			ls.checkExpr(s.Cond, held)
			ls.walkBlock(s.Body.List, copyHeld(held))
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				ls.walkBlock(e.List, copyHeld(held))
			case *ast.IfStmt:
				ls.walkBlock([]ast.Stmt{e}, copyHeld(held))
			}
		case *ast.ForStmt:
			ls.walkBlock(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			ls.walkBlock(s.Body.List, copyHeld(held))
		case *ast.BlockStmt:
			ls.walkBlock(s.List, held)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			ast.Inspect(stmt, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					ls.walkBlock(cc.Body, copyHeld(held))
					return false
				}
				return true
			})
		default:
			ls.checkStmt(stmt, held)
		}
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// checkStmt scans one statement (that is not itself lock bookkeeping)
// for blocking operations while locks are held.
func (ls *lockState) checkStmt(stmt ast.Stmt, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ls.checkExpr(stmt, held)
}

// checkExpr walks a node reporting blocking operations. Function
// literals are skipped (their bodies run with their own lock state —
// typically on another goroutine), as are `go` statements.
func (ls *lockState) checkExpr(node ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			ls.report(n.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ls.report(n.Pos(), "channel receive", held)
			}
		case *ast.SelectStmt:
			// A select with a default clause cannot block: every comm
			// clause is attempted without waiting and the default runs
			// otherwise. Its sends/receives are therefore exempt, but the
			// clause bodies still execute under the lock and are checked.
			if selectHasDefault(n) {
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							ls.checkExpr(st, held)
						}
					}
				}
				return false
			}
			ls.report(n.Pos(), "select", held)
			return false
		case *ast.CallExpr:
			if desc, blocking := ls.blockingCall(n); blocking {
				ls.report(n.Pos(), desc, held)
			}
		}
		return true
	})
}

// selectHasDefault reports whether the select has a default clause
// (making it non-blocking by construction).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that can block indefinitely.
func (ls *lockState) blockingCall(call *ast.CallExpr) (string, bool) {
	if isPkgCall(ls.pkg.Info, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv := ls.pkg.Info.Types[sel.X].Type
	if recv == nil {
		return "", false
	}
	path, name, named := namedPathName(recv)
	if !named {
		return "", false
	}
	if path == "sync" && (name == "WaitGroup" || name == "Cond") && sel.Sel.Name == "Wait" {
		return "sync." + name + ".Wait", true
	}
	// The system's own entry points re-enter the exclusive runtime
	// activities; calling one while holding a lock inverts the §5
	// serialization order.
	if strings.HasSuffix(path, "internal/core") && name == "System" &&
		(strings.HasPrefix(sel.Sel.Name, "Query") || strings.HasPrefix(sel.Sel.Name, "Apply")) {
		return "core.System." + sel.Sel.Name, true
	}
	return "", false
}

func (ls *lockState) report(pos token.Pos, what string, held map[string]token.Pos) {
	for key, lockPos := range held {
		ls.pass.Reportf(pos,
			"%s while holding %s (locked at %s) can block the exclusive engine/core activity indefinitely; release the lock first",
			what, key, ls.pass.Fset.Position(lockPos))
	}
}
