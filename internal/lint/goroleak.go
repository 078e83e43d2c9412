package lint

import (
	"go/ast"
	"go/types"
)

// Goroleak certifies goroutine lifetime: a `go` statement whose body
// can park forever on a channel operation is a leak — it pins its stack
// and captures past server drain. Every potentially-blocking channel
// operation reachable from a launch (through module calls, via the
// Blocks summary) must have an escape edge:
//
//   - a receive, or a select arm, on a Done() channel (ctx.Done(), the
//     load generator's runner);
//   - a send on a locally made buffered channel (`errCh := make(chan
//     error, 1)` hand-off, cmd/tripoline-server's ListenAndServe relay).
//
// Launches of functions outside the module (`go srv.Serve(ln)`) are
// skipped: their lifetime is the library's contract, not ours.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "launched goroutines must not park forever on a channel operation without an escape edge",
	Run:  runGoroleak,
}

func runGoroleak(pass *Pass) {
	sum := summarize(pass)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				fs := sum.Of(fn)
				if fs == nil {
					continue
				}
				for _, site := range fs.Spawns {
					checkGoSite(pass, site, sum)
				}
			}
		}
	}
}

// checkGoSite judges one launch: literal bodies are scanned directly
// (with buffered-channel provenance from the enclosing declaration);
// named module callees are judged by their Blocks summary.
func checkGoSite(pass *Pass, site *GoSite, sum *Summaries) {
	info := site.Pkg.Info
	if site.Body != nil {
		buffered := bufferedChans(info, site.Encl.Body)
		if pos, blocks := firstBlockingOp(info, site.Body, buffered, sum); blocks {
			pass.Reportf(site.Stmt.Pos(),
				"goroutine can block forever at %s on a channel operation with no escape edge; add a ctx.Done() arm or a buffered hand-off channel",
				pass.Fset.Position(pos))
		}
		return
	}
	if site.Callee == nil {
		return // indirect launch: nothing to resolve
	}
	fs := sum.Of(site.Callee)
	if fs == nil {
		return // external callee: its lifetime is the library's contract
	}
	if fs.Blocks {
		pass.Reportf(site.Stmt.Pos(),
			"goroutine runs %s, which can block forever at %s on a channel operation with no escape edge",
			site.Callee.Name(), pass.Fset.Position(fs.BlockPos))
	}
}
