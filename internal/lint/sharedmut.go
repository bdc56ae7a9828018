package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The per-reference-slot caches ([N]*video.Frame, [N]*motion.Pyramid
// arrays and scalar *motion.Pyramid fields) are built once per frame
// and then shared read-only across concurrently encoding tile workers,
// with no locks — PR 2's pyramid design. Any write reachable from them
// outside a constructor/build function is a data race waiting for a
// tile count > 1.

// cacheElemTypes are the named types whose pointers populate the
// reference-slot caches.
var cacheElemTypes = map[string]bool{
	"internal/video.Frame":          true,
	"internal/codec/motion.Pyramid": true,
}

// pyramidTypes are the types making up cached pyramid content; a write
// through a value of one of these types mutates what tile workers read.
var pyramidTypes = map[string]bool{
	"internal/codec/motion.Pyramid":  true,
	"internal/codec/motion.PyrLevel": true,
}

func init() {
	Register(&Analyzer{
		Name: "sharedmut",
		Doc: "flags writes to the per-reference-slot frame/pyramid " +
			"caches ([N]*video.Frame, [N]*motion.Pyramid, scalar " +
			"*motion.Pyramid fields) and writes through values read " +
			"from them, outside constructor/build functions. The caches " +
			"are shared read-only across tile workers without locks",
		Run: runSharedMut,
	})
}

// isResetFunc marks re-constructors (reset/Reset prefix): scratch-reuse
// resets run at frame barriers — the previous frame's workers have
// joined and the next frame's jobs are not yet submitted — so their
// cache-field writes are the same single-owner initialization a
// constructor performs. Only sharedmut exempts them; hotalloc still
// sees reset bodies because they run per frame and must not allocate.
func isResetFunc(name string) bool {
	return strings.HasPrefix(name, "reset") || strings.HasPrefix(name, "Reset")
}

// isCacheFieldType reports whether a struct field of this type is a
// reference-slot cache.
func isCacheFieldType(idx *Index, t types.Type) bool {
	if a, ok := t.(*types.Array); ok {
		return cacheElemTypes[idx.ptrToKey(a.Elem())]
	}
	return idx.ptrToKey(t) == "internal/codec/motion.Pyramid"
}

// chainInfo is what walking an lvalue/rvalue selector-index chain from
// its root identifier learns.
type chainInfo struct {
	root       *ast.Ident // leftmost identifier, nil if the root is not an ident
	cacheField bool       // a step accessed a reference-slot cache field
	crossedPtr bool       // a step dereferenced a pointer or indexed a slice
	pyramid    bool       // a step traversed cached pyramid content
}

// walkChain resolves e stepwise so each selector/index step can be
// classified against the cache shapes.
func walkChain(pass *Pass, e ast.Expr) chainInfo {
	// step classifies one dereference of base, the operand of a
	// selector, index or star step.
	step := func(base ast.Expr) chainInfo {
		info := walkChain(pass, base)
		bt := pass.Info.TypeOf(base)
		if bt == nil {
			return info
		}
		switch bt.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
			info.crossedPtr = true
		}
		if key, _ := pass.Index.namedKey(deref(bt)); pyramidTypes[key] {
			info.pyramid = true
		}
		return info
	}
	switch x := e.(type) {
	case *ast.Ident:
		return chainInfo{root: x}
	case *ast.ParenExpr:
		return walkChain(pass, x.X)
	case *ast.SelectorExpr:
		info := step(x.X)
		if sel := pass.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal && isCacheFieldType(pass.Index, sel.Type()) {
			info.cacheField = true
		}
		return info
	case *ast.IndexExpr:
		return step(x.X)
	case *ast.StarExpr:
		return step(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return walkChain(pass, x.X)
		}
	}
	return chainInfo{}
}

func runSharedMut(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isSetupFunc(fd.Name.Name) || isResetFunc(fd.Name.Name) {
				continue
			}
			checkSharedMut(pass, fd)
		}
	}
}

func checkSharedMut(pass *Pass, fd *ast.FuncDecl) {
	fresh := localFreshness(pass.Info, fd)

	// tainted: locals whose value was read out of a cache field, so a
	// pointer-crossing write through them mutates shared state.
	tainted := map[string]bool{}

	checkWrite := func(pos token.Pos, lhs ast.Expr) {
		if _, plain := lhs.(*ast.Ident); plain {
			return // rebinding a local is never a cache write
		}
		info := walkChain(pass, lhs)
		if info.root != nil && fresh[pass.Info.ObjectOf(info.root)] {
			return // value constructed in this function: not shared yet
		}
		switch {
		case info.cacheField:
			pass.Reportf(pos,
				"write to reference-slot cache %s outside a constructor; tile workers share the cache read-only",
				exprString(lhs))
		case info.root != nil && tainted[info.root.Name] && info.crossedPtr:
			pass.Reportf(pos,
				"write through %s, read from a reference-slot cache; cached frames/pyramids are immutable after construction",
				exprString(lhs))
		case info.pyramid:
			pass.Reportf(pos,
				"write to cached pyramid content %s outside its build function; pyramids are shared read-only across tiles",
				exprString(lhs))
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				checkWrite(lhs.Pos(), lhs)
				// Taint locals assigned from cache reads (p := e.refPyr[0]).
				if st.Tok != token.DEFINE && st.Tok != token.ASSIGN {
					continue
				}
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent || i >= len(st.Rhs) {
					continue
				}
				rhs := walkChain(pass, st.Rhs[i])
				if rhs.cacheField {
					tainted[id.Name] = true
				}
			}
		case *ast.IncDecStmt:
			checkWrite(st.X.Pos(), st.X)
		}
		return true
	})
}

// localFreshness records which locals of fd hold a value constructed
// inside it: a composite literal, &composite, make/new, a call to a
// constructor-named function (New*/Build*/Make*/Alloc*/Clone*, setup
// prefixes), or a local already fresh at that point in source order.
// A local stays fresh only if every assignment to it is; parameters,
// receivers and results never are.
func localFreshness(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	seen := map[types.Object]bool{}
	set := func(id *ast.Ident, isFresh bool) {
		obj := info.ObjectOf(id)
		if seen[obj] {
			isFresh = isFresh && fresh[obj]
		}
		seen[obj] = true
		fresh[obj] = isFresh
	}
	var freshExpr func(e ast.Expr) bool
	freshExpr = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, lit := x.X.(*ast.CompositeLit)
			return x.Op == token.AND && lit
		case *ast.CallExpr:
			name := ""
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				name = fn.Name
			case *ast.SelectorExpr:
				name = fn.Sel.Name
			}
			return name == "make" || name == "new" || isSetupFunc(name) ||
				strings.HasPrefix(name, "Clone") || strings.HasPrefix(name, "clone")
		case *ast.Ident:
			return fresh[info.ObjectOf(x)]
		}
		return false
	}
	for _, fields := range []*ast.FieldList{fd.Recv, fd.Type.Params, fd.Type.Results} {
		if fields != nil {
			for _, field := range fields.List {
				for _, name := range field.Names {
					set(name, false)
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE && st.Tok != token.ASSIGN {
				return true // compound assignment: origin unchanged
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if len(st.Rhs) == 1 {
					set(id, freshExpr(st.Rhs[0])) // x := f() and x, err := f()
				} else {
					set(id, freshExpr(st.Rhs[i]))
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					set(id, false)
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				set(name, i < len(st.Values) && freshExpr(st.Values[i]))
			}
		}
		return true
	})
	return fresh
}
