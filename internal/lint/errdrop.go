package lint

import (
	"go/ast"
	"go/types"
)

// stdlibErrCalls are the standard-library functions and methods, by
// types.Func.FullName, whose error result is worth checking even though
// they are declared outside this module: filesystem mutations, the
// environment, and closing, syncing or flushing written data.
var stdlibErrCalls = map[string]bool{
	"os.Remove": true, "os.RemoveAll": true, "os.Mkdir": true, "os.MkdirAll": true,
	"os.Chdir": true, "os.Rename": true, "os.Truncate": true,
	"os.Setenv": true, "os.Unsetenv": true,
	"(*os.File).Close": true, "(*os.File).Sync": true, "(*os.File).Truncate": true,
	"(*os.File).WriteString": true,
	"(*bufio.Writer).Flush":  true, "(*bufio.Writer).WriteString": true,
	"(*bufio.Writer).WriteByte": true, "(*bufio.Writer).WriteRune": true,
	"(*bytes.Buffer).WriteString": true, "(*bytes.Buffer).WriteByte": true,
	"(*bytes.Buffer).WriteRune":      true,
	"(*strings.Builder).WriteString": true, "(*strings.Builder).WriteByte": true,
	"(*strings.Builder).WriteRune": true,
}

func init() {
	Register(&Analyzer{
		Name: "errdrop",
		Doc: "flags discarded error returns (`_ = f()`, `v, _ := f()`, bare and " +
			"deferred calls) for module functions whose last result is error " +
			"and for listed stdlib error returners; test files are exempt",
		Run: runErrDrop,
	})
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		funcBodies(f.AST, func(_ string, body *ast.BlockStmt) {
			checkErrDropBody(pass, body)
		})
	}
}

func checkErrDropBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false // literals get their own funcBodies visit
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok && callReturnsError(pass, call) {
				pass.Reportf(node.Pos(), "error result of %s is silently dropped; handle it or add //lint:ignore errdrop <reason>", calleeName(call))
			}
		case *ast.DeferStmt:
			if node.Call != nil && callReturnsError(pass, node.Call) {
				pass.Reportf(node.Pos(), "deferred %s drops its error; wrap it or add //lint:ignore errdrop <reason>", calleeName(node.Call))
			}
		case *ast.GoStmt:
			if node.Call != nil && callReturnsError(pass, node.Call) {
				pass.Reportf(node.Pos(), "goroutine call %s drops its error", calleeName(node.Call))
			}
		case *ast.AssignStmt:
			// Single call on the RHS with a blank in the error slot:
			// `_ = f()`, `v, _ := f()`, `_, _ = f()`.
			if len(node.Rhs) != 1 {
				return true
			}
			call, ok := node.Rhs[0].(*ast.CallExpr)
			if !ok || !callReturnsError(pass, call) {
				return true
			}
			last, ok := node.Lhs[len(node.Lhs)-1].(*ast.Ident)
			if ok && last.Name == "_" {
				pass.Reportf(node.Pos(), "error result of %s assigned to _; handle it or add //lint:ignore errdrop <reason>", calleeName(call))
			}
		}
		return true
	})
}

// callReturnsError reports whether a call's last result is error by
// its type signature, for the calls this rule checks: module functions
// and methods (interface methods included), and the listed
// standard-library calls.
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	fn := callee(pass.Info, call)
	if fn == nil || (pass.Index.byTypes[fn.Pkg()] == nil && !stdlibErrCalls[fn.FullName()]) {
		return false
	}
	res := fn.Signature().Results()
	return res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// calleeName renders the callee for diagnostics.
func calleeName(call *ast.CallExpr) string {
	if s := exprString(call.Fun); s != "" {
		return s
	}
	return "call"
}
