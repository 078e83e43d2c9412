package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces the ctx-at-superstep-boundary discipline from the
// cancellable query lifecycle: contexts flow down the call chain from
// the request entry point, never get minted mid-library and never hide
// in structs. Three rules:
//
//  1. context.Background()/context.TODO() may appear only in package
//     main (commands and examples) or as the ctx argument of the
//     Foo → FooCtx compatibility-wrapper idiom (func Foo calling
//     FooCtx(context.Background(), ...)). Anywhere else it severs the
//     caller's cancellation chain.
//
//  2. an exported ...Ctx function or method with a context.Context
//     parameter must actually use it — forward it to a call or consult
//     ctx.Err/ctx.Done. An ignored ctx parameter advertises
//     cancellability it does not deliver.
//
//  3. context.Context must not be stored in struct fields (contexts are
//     call-scoped, per the context package's own contract).
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "contexts must flow through parameters: no Background/TODO outside commands and wrappers, exported ...Ctx funcs forward ctx, no ctx in structs",
	Run:  runCtxflow,
}

func isContextType(t types.Type) bool {
	path, name, ok := namedPathName(t)
	return ok && path == "context" && name == "Context"
}

func runCtxflow(pass *Pass) {
	for _, pkg := range pass.Pkgs {
		isMain := pkg.Pkg.Name() == "main"
		for _, file := range pkg.Files {
			checkBackgroundCalls(pass, pkg, file, isMain)
			checkStructFields(pass, pkg, file)
			checkCtxForwarding(pass, pkg, file)
		}
	}
}

// checkBackgroundCalls flags context.Background()/TODO() outside
// package main, excepting the wrapper idiom.
func checkBackgroundCalls(pass *Pass, pkg *Package, file *ast.File, isMain bool) {
	if isMain {
		return
	}
	inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		if isPkgCall(pkg.Info, call, "context", "Background") {
			name = "context.Background"
		} else if isPkgCall(pkg.Info, call, "context", "TODO") {
			name = "context.TODO"
		}
		if name == "" {
			return true
		}
		if wrapperForwarded(pkg, call, stack) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s() outside cmd/, examples/ and tests severs the caller's cancellation chain; accept a ctx parameter (or use the Foo → FooCtx wrapper idiom)", name)
		return true
	})
}

// wrapperForwarded reports whether the Background/TODO call is a direct
// argument of a call to <EnclosingFunc>Ctx — the sanctioned
// compatibility-wrapper shape.
func wrapperForwarded(pkg *Package, bg *ast.CallExpr, stack []ast.Node) bool {
	fd := enclosingFuncDecl(stack)
	if fd == nil || len(stack) == 0 {
		return false
	}
	outer, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, arg := range outer.Args {
		if ast.Unparen(arg) == bg {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	callee := calleeFunc(pkg.Info, outer)
	return callee != nil && callee.Name() == fd.Name.Name+"Ctx"
}

// checkStructFields flags context.Context struct fields.
func checkStructFields(pass *Pass, pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, f := range st.Fields.List {
			if t := pkg.Info.Types[f.Type].Type; isContextType(t) {
				pass.Reportf(f.Pos(),
					"context.Context stored in a struct field; contexts are call-scoped — pass ctx as the first parameter instead")
			}
		}
		return true
	})
}

// checkCtxForwarding flags exported ...Ctx functions whose ctx
// parameter is never consulted.
func checkCtxForwarding(pass *Pass, pkg *Package, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !fd.Name.IsExported() || !strings.HasSuffix(fd.Name.Name, "Ctx") {
			continue
		}
		var ctxObj types.Object
		unnamedCtx := false
		if fd.Type.Params != nil {
			for _, p := range fd.Type.Params.List {
				if t := pkg.Info.Types[p.Type].Type; !isContextType(t) {
					continue
				}
				if len(p.Names) == 0 {
					unnamedCtx = true
					continue
				}
				for _, name := range p.Names {
					if name.Name == "_" {
						unnamedCtx = true
						continue
					}
					ctxObj = pkg.Info.Defs[name]
				}
			}
		}
		if unnamedCtx && ctxObj == nil {
			pass.Reportf(fd.Name.Pos(),
				"exported %s discards its context parameter; a ...Ctx entry point must forward ctx (or check ctx.Err at its iteration boundaries)", fd.Name.Name)
			continue
		}
		if ctxObj == nil {
			continue // no context parameter at all; the Ctx suffix is just a name
		}
		used := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return !used
			}
			// ctx forwarded as an argument?
			for _, arg := range call.Args {
				if id, isID := ast.Unparen(arg).(*ast.Ident); isID && pkg.Info.Uses[id] == ctxObj {
					used = true
				}
			}
			// ctx.Err() / ctx.Done() / ctx.Deadline() / ctx.Value()?
			if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
				if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID && pkg.Info.Uses[id] == ctxObj {
					used = true
				}
			}
			return !used
		})
		if !used {
			pass.Reportf(fd.Name.Pos(),
				"exported %s never forwards or consults its ctx parameter; cancellation silently stops working at this boundary", fd.Name.Name)
		}
	}
}
