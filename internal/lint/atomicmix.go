package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Atomicmix enforces the async-safe monotonic-update invariant of
// Theorem 4.4: a word that is updated through a sync/atomic function must
// never race with a plain access. A single plain read of an
// atomically-updated property array inside a parallel worker silently
// breaks the triangle-inequality bound Δ(u,r)[x] ⪰ property(u,x).
//
// Two rules:
//
//   - scalar rule (module-wide): a variable or struct field whose
//     address is passed to an atomic function anywhere in the module
//     must not be read or written plainly anywhere. Scalars meant for
//     mixed-phase access should use the atomic.Uint64-style types, whose
//     methods make plain access impossible.
//
//   - element rule (per function): inside a function that atomically
//     accesses elements of a slice (atomic.XxxUint64(&s[i], ...)), every
//     other access to that slice's elements is flagged, whether it runs
//     in a closure (what parallel.For and go statements run
//     concurrently) or before the workers start or after they join, and
//     whether it reads the element or hands its address on.
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "atomically-updated words must not also be accessed plainly where it races",
	Run:  runAtomicmix,
}

// atomicCallArg returns the expression whose address call passes to a
// sync/atomic function (the first argument of the form &expr), or nil.
func atomicCallArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if !isPkgCall(info, call, "sync/atomic",
		"LoadInt32", "LoadInt64", "LoadUint32", "LoadUint64", "LoadUintptr", "LoadPointer",
		"StoreInt32", "StoreInt64", "StoreUint32", "StoreUint64", "StoreUintptr", "StorePointer",
		"AddInt32", "AddInt64", "AddUint32", "AddUint64", "AddUintptr",
		"SwapInt32", "SwapInt64", "SwapUint32", "SwapUint64", "SwapUintptr", "SwapPointer",
		"CompareAndSwapInt32", "CompareAndSwapInt64", "CompareAndSwapUint32",
		"CompareAndSwapUint64", "CompareAndSwapUintptr", "CompareAndSwapPointer") {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return ast.Unparen(u.X)
	}
	return nil
}

func runAtomicmix(pass *Pass) {
	// scalars: object -> first atomic-access position, for messages.
	scalars := make(map[types.Object]token.Pos)
	// scalarSites: the exact expressions used inside atomic calls, so the
	// module-wide plain-access sweep can exclude them.
	scalarSites := make(map[ast.Expr]bool)
	// elems: per top-level function, the slice-like objects with an
	// atomic element access in that function.
	type funcKey struct {
		pkg *Package
		fn  *ast.FuncDecl
	}
	elems := make(map[funcKey]map[types.Object]bool)
	elemSites := make(map[ast.Expr]bool)

	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				target := atomicCallArg(pkg.Info, call)
				if target == nil {
					return true
				}
				if idx, isIdx := target.(*ast.IndexExpr); isIdx {
					obj := baseObject(pkg.Info, idx.X)
					fd := enclosingFuncDecl(stack)
					if obj == nil || fd == nil {
						return true
					}
					key := funcKey{pkg, fd}
					if elems[key] == nil {
						elems[key] = make(map[types.Object]bool)
					}
					elems[key][obj] = true
					elemSites[idx] = true
					return true
				}
				obj := baseObject(pkg.Info, target)
				if obj == nil {
					return true
				}
				if _, seen := scalars[obj]; !seen {
					scalars[obj] = call.Pos()
				}
				scalarSites[target] = true
				return true
			})
		}
	}

	// Element rule: plain index accesses in a function that also accesses
	// the same slice atomically.
	for key, objs := range elems {
		info := key.pkg.Info
		inspectStack(key.fn, func(n ast.Node, stack []ast.Node) bool {
			idx, ok := n.(*ast.IndexExpr)
			if !ok || elemSites[idx] {
				return true
			}
			obj := baseObject(info, idx.X)
			if obj == nil || !objs[obj] {
				return true
			}
			pass.Reportf(idx.Pos(),
				"%s is accessed atomically elsewhere in %s; this plain element access races with the atomic updates — use atomic.LoadUint64/StoreUint64",
				exprText(idx.X), key.fn.Name.Name)
			return true
		})
	}

	// Scalar rule: module-wide plain uses of atomically-accessed scalars.
	if len(scalars) == 0 {
		return
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
				var obj types.Object
				switch e := n.(type) {
				case *ast.Ident:
					obj = pkg.Info.Uses[e]
				case *ast.SelectorExpr:
					if sel, ok := pkg.Info.Selections[e]; ok {
						obj = sel.Obj()
					}
				default:
					return true
				}
				pos, tracked := scalars[obj]
				if !tracked {
					return true
				}
				expr, isExpr := n.(ast.Expr)
				if !isExpr || partOfTrackedSelector(expr, stack, pkg.Info, scalars) {
					return true
				}
				if scalarSiteAbove(expr, stack, scalarSites) {
					return false
				}
				pass.Reportf(n.Pos(),
					"%s is accessed atomically (e.g. at %s) but read/written plainly here; every access to an atomic word must go through sync/atomic (or switch the field to atomic.Uint64)",
					exprText(expr), pass.Fset.Position(pos))
				return false
			})
		}
	}
}

// scalarSiteAbove reports whether expr is (part of) an expression
// recorded as an atomic call site.
func scalarSiteAbove(expr ast.Expr, stack []ast.Node, sites map[ast.Expr]bool) bool {
	if sites[expr] {
		return true
	}
	for _, n := range stack {
		if e, ok := n.(ast.Expr); ok && sites[e] {
			return true
		}
	}
	return false
}

// partOfTrackedSelector suppresses the bare-ident hit when the
// interesting object is the enclosing selector (x in x.f): the selector
// itself is what gets reported.
func partOfTrackedSelector(expr ast.Expr, stack []ast.Node, info *types.Info, scalars map[types.Object]token.Pos) bool {
	if len(stack) == 0 {
		return false
	}
	if sel, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && sel.X == expr {
		if s, ok := info.Selections[sel]; ok {
			if _, tracked := scalars[s.Obj()]; tracked {
				return true
			}
		}
	}
	return false
}
