package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// swarDirs are the packages doing uint64 lane arithmetic (SWAR pixel
// kernels) and sub-word bit packing, where a wrong shift count or a
// mask that does not respect the lane layout corrupts pixels silently
// instead of crashing.
var swarDirs = []string{
	"internal/codec/motion",
	"internal/codec/filter",
	"internal/bits",
}

func init() {
	Register(&Analyzer{
		Name: "swarwidth",
		Doc: "in internal/codec/motion and internal/bits, flags " +
			"constant shifts >= the operand's bit width (always zero or " +
			"implementation-defined intent), 64-bit masks that are not " +
			"byte/16/32-bit lane-periodic, and integer conversions that " +
			"narrow or reinterpret an accumulator variable",
		Run: runSwarWidth,
	})
}

func runSwarWidth(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, swarDirs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSwarWidth(pass, fd)
		}
	}
}

// lanePeriodic reports whether a 64-bit word repeats with a byte,
// 16-bit or 32-bit period — the lane layouts the SWAR kernels use.
func lanePeriodic(v uint64) bool {
	b := v & 0xff
	if v == b*0x0101010101010101 {
		return true
	}
	h := v & 0xffff
	if v == h*0x0001000100010001 {
		return true
	}
	return v == (v&0xffffffff)*0x0000000100000001
}

func checkSwarWidth(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// accumulated: bare locals built up with compound assignment —
	// the lane accumulators whose narrowing loses carries.
	accumulated := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch st.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN, token.SHL_ASSIGN:
			for _, lhs := range st.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent {
					accumulated[id.Name] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.SHL, token.SHR:
				count := info.Types[x.Y].Value
				if count == nil || info.Types[x.X].Value != nil {
					return true // variable count, or a constant the compiler folds
				}
				c, exact := constant.Int64Val(constant.ToInt(count))
				w, _, okW := intInfo(info.TypeOf(x.X))
				if exact && okW && c >= int64(w) {
					pass.Reportf(x.Pos(),
						"shift count %d >= bit width %d of %s; the result is always zero",
						c, w, exprString(x.X))
				}
			case token.AND, token.OR, token.XOR, token.AND_NOT:
				for _, op := range []ast.Expr{x.X, x.Y} {
					v, exact := constant.Uint64Val(constant.ToInt(info.Types[op].Value))
					if exact && writtenWideHex(pass.Index, info, op, 0) && !lanePeriodic(v) {
						pass.Reportf(op.Pos(),
							"64-bit mask %#016x is not byte/16/32-bit lane-periodic; it does not cover an even lane layout",
							v)
					}
				}
			}
		case *ast.CallExpr:
			// Conversion of a bare accumulator: T(acc).
			if len(x.Args) != 1 || !info.Types[x.Fun].IsType() {
				return true
			}
			arg, ok := x.Args[0].(*ast.Ident)
			if !ok || !accumulated[arg.Name] {
				return true
			}
			wT, uT, okT := intInfo(info.Types[x.Fun].Type)
			wX, uX, okX := intInfo(info.TypeOf(arg))
			if !okT || !okX {
				return true
			}
			if wT < wX {
				pass.Reportf(x.Pos(),
					"conversion %s truncates accumulator %s from %d to %d bits; fold lanes before narrowing",
					convName(x.Fun), arg.Name, wX, wT)
			} else if wT == wX && uT != uX {
				pass.Reportf(x.Pos(),
					"conversion %s reinterprets the sign of accumulator %s; a high lane bit becomes a sign bit",
					convName(x.Fun), arg.Name)
			}
		}
		return true
	})
}

// intInfo reports the bit width and signedness of a typed integer type.
func intInfo(t types.Type) (width int, unsigned bool, ok bool) {
	bi := basicInfo(t)
	if bi&types.IsInteger == 0 || bi&types.IsUntyped != 0 {
		return 0, false, false
	}
	return int(gcSizes.Sizeof(t)) * 8, bi&types.IsUnsigned != 0, true
}

// writtenWideHex reports whether e is spelled as a 16-hex-digit literal
// (a 64-bit lane mask), directly or through module constants declared
// as one.
func writtenWideHex(idx *Index, info *types.Info, e ast.Expr, depth int) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		digits, hex := strings.CutPrefix(strings.ToLower(x.Value), "0x")
		return x.Kind == token.INT && hex && len(strings.ReplaceAll(digits, "_", "")) == 16
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || depth > 8 {
		return false
	}
	if p := idx.byTypes[c.Pkg()]; p != nil {
		for _, f := range p.Files {
			for _, decl := range f.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if name.Pos() == c.Pos() && i < len(vs.Values) {
							return writtenWideHex(idx, p.Info, vs.Values[i], depth+1)
						}
					}
				}
			}
		}
	}
	return false
}

// convName renders a conversion target for messages.
func convName(e ast.Expr) string {
	if s := exprString(e); s != "" {
		return s
	}
	return fmt.Sprintf("%T", e)
}
