package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Index is the module-wide state shared by every Pass: the type-checked
// packages, the mapping from go/types packages back to them, and the
// caches of the two whole-program analyses.
type Index struct {
	fset    *token.FileSet
	modPath string
	pkgs    []*Package
	byTypes map[*types.Package]*Package

	// cg caches the call-graph summaries (callgraph.go), built lazily by
	// the first rule that needs interprocedural facts. The sync.Once
	// makes the lazy path safe under the parallel driver (which also
	// pre-builds it eagerly to keep the hot path contention-free).
	cg     *callGraph
	cgOnce sync.Once

	// lockOrder caches the module-wide lock-order analysis
	// (lockorder.go): it is a whole-program property, computed once and
	// then reported per owning package.
	lockOrderOnce sync.Once
	lockOrder     []lockOrderFinding
}

// keyDir renders a module package for symbol keys: its import path
// relative to the module ("internal/codec/motion", "internal/x_test"
// for an external test package, "." for the root).
func (idx *Index) keyDir(p *types.Package) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(p.Path(), idx.modPath), "/")
	if rel == "" {
		return "."
	}
	return rel
}

// namedKey names the named type t (aliases unwrapped, instantiations
// mapped to their origin): "internal/codec/motion.Pyramid" for module
// types, "sync.WaitGroup" for the rest. inModule reports which; the key
// is "" for anything that is not a package-level named type.
func (idx *Index) namedKey(t types.Type) (key string, inModule bool) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	obj := n.Origin().Obj()
	if idx.byTypes[obj.Pkg()] != nil {
		return idx.keyDir(obj.Pkg()) + "." + obj.Name(), true
	}
	return obj.Pkg().Path() + "." + obj.Name(), false
}

// ptrToKey returns the namedKey of *T when t is a pointer to a named
// type, "" otherwise.
func (idx *Index) ptrToKey(t types.Type) string {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return ""
	}
	key, _ := idx.namedKey(p.Elem())
	return key
}

// funcKey names a module function "dir.Func" or method
// "dir.Recv.Method" (pointer receivers unwrapped). "" for functions
// outside the module and for methods of unnamed types.
func (idx *Index) funcKey(fn *types.Func) string {
	if fn == nil || idx.byTypes[fn.Pkg()] == nil {
		return ""
	}
	name := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		key, _ := idx.namedKey(deref(recv.Type()))
		if key == "" {
			return ""
		}
		name = key[strings.LastIndexByte(key, '.')+1:] + "." + name
	}
	return idx.keyDir(fn.Pkg()) + "." + name
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// under is t.Underlying(), nil for a nil t (an expression the checker
// could not type).
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// basicInfo returns the properties of a basic type, 0 for anything else.
func basicInfo(t types.Type) types.BasicInfo {
	if b, ok := under(t).(*types.Basic); ok {
		return b.Info()
	}
	return 0
}

// isChan reports whether t is a channel type.
func isChan(t types.Type) bool {
	_, ok := under(t).(*types.Chan)
	return ok
}

// callee returns the function or method a call statically names, or nil
// for builtins, conversions and calls of function values. Interface
// methods resolve to the abstract method.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr: // generic instantiation f[T](...)
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// pkgFunc decodes a call of a package-level function through an import
// (time.Now()), returning the imported package path and function name.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
