package analysis

import (
	"go/ast"
	"go/types"
)

// durabilityPkgs hold the code that persists checkpoints, result
// caches, object-store segments and model artifacts. blob holds the one
// temp+rename helper, blob.DirStore.Put, which serve's result cache and
// eval's artifact store publish through.
var durabilityPkgs = []string{"blob", "dispatch", "serve", "eval"}

// Atomicwritelint enforces the durability contract in blob, dispatch,
// serve and eval: files that other machines (or a resumed run) will read
// must appear atomically and their write errors must surface.
//
//   - os.WriteFile / os.Create are flagged: a crash mid-write leaves a
//     torn file under the final name. Durable writes go through the
//     temp+rename helper (blob.DirStore.Put: os.CreateTemp + os.Rename).
//     A deliberate non-atomic write (the torn-tail fault injector)
//     carries //advlint:atomic-ok.
//   - A discarded (*os.File).Close or Sync error — expression
//     statement, defer, go, or assignment to blank — is flagged: on
//     buffered filesystems the close is where a write failure finally
//     reports. Error-path cleanup closes (the write already failed and
//     is being returned) carry //advlint:close-ok.
var Atomicwritelint = &Analyzer{
	Name: "atomicwritelint",
	Doc:  "durability code writes through temp+rename and never discards file Close/Sync errors",
	Run:  runAtomicwritelint,
}

func runAtomicwritelint(pass *Pass) error {
	if !pathIn(pass.Pkg.Path(), durabilityPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDirectWrite(pass, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscardedClose(pass, call)
				}
			case *ast.DeferStmt:
				checkDiscardedClose(pass, n.Call)
			case *ast.GoStmt:
				checkDiscardedClose(pass, n.Call)
			case *ast.AssignStmt:
				checkBlankClose(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkDirectWrite(pass *Pass, call *ast.CallExpr) {
	for _, name := range []string{"WriteFile", "Create"} {
		if isPkgFunc(pass.TypesInfo, call, "os", name) && !pass.Annotated(call.Pos(), "atomic-ok") {
			pass.Reportf(call.Pos(),
				"os.%s in durability code is not crash-atomic; write via os.CreateTemp + os.Rename "+
					"(or annotate //advlint:atomic-ok with a justification)", name)
			return
		}
	}
}

// checkDiscardedClose flags a bare Close/Sync call on an *os.File
// whose error result nobody reads.
func checkDiscardedClose(pass *Pass, call *ast.CallExpr) {
	name, ok := osFileCloseOrSync(pass, call)
	if !ok || pass.Annotated(call.Pos(), "close-ok") {
		return
	}
	pass.Reportf(call.Pos(),
		"%s error discarded on an os.File in durability code; a failed close is a failed write "+
			"(check it, or annotate //advlint:close-ok on error-path cleanup)", name)
}

// checkBlankClose flags `_ = f.Close()` — an explicit discard still
// hides a write failure in durability code.
func checkBlankClose(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	if id, ok := assign.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	checkDiscardedClose(pass, call)
}

// osFileCloseOrSync reports whether call is (*os.File).Close or
// (*os.File).Sync, returning the method name.
func osFileCloseOrSync(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Close" && sel.Sel.Name != "Sync" {
		return "", false
	}
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return "", false
	}
	ptr, ok := recv.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "os" || obj.Name() != "File" {
		return "", false
	}
	return sel.Sel.Name, true
}
