package lint

import (
	"go/ast"
	"go/types"
)

// bigCopyThreshold is the value size, in bytes, above which
// passing or ranging by value is flagged. 256 bytes is several cache
// lines per call — frames, planes, and lookahead state cross it easily.
const bigCopyThreshold = 256

func init() {
	Register(&Analyzer{
		Name: "bigcopy",
		Doc: "flags large structs/arrays (>256 bytes) passed, received, " +
			"or ranged by value in the hot packages (internal/codec/..., " +
			"internal/video); pass pointers instead",
		Run: runBigCopy,
	})
}

func runBigCopy(pass *Pass) {
	if !dirMatchesAny(pass.Pkg.Dir, hotDirs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.IsTest {
			continue
		}
		checkBigCopyFile(pass, f)
	}
}

func checkBigCopyFile(pass *Pass, f *File) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		for _, fl := range []struct {
			kind   string
			fields *ast.FieldList
		}{{"receiver", fd.Recv}, {"parameter", fd.Type.Params}} {
			if fl.fields == nil {
				continue
			}
			for _, field := range fl.fields.List {
				if size, name, ok := bigValue(pass, pass.Info.TypeOf(field.Type)); ok {
					pass.Reportf(field.Pos(), "%s %s copies ~%d bytes per call; pass *%s", fl.kind, name, size, name)
				}
			}
		}
		if fd.Body == nil {
			continue
		}
		// `for _, v := range xs` copies each element into v.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || rng.Value == nil {
				return true
			}
			if size, name, ok := bigValue(pass, pass.Info.TypeOf(rng.Value)); ok {
				pass.Reportf(rng.Pos(), "range copies ~%d-byte %s per iteration; range over indices or use *%s elements", size, name, name)
			}
			return true
		})
	}
}

// bigValue reports whether a value of type t is a by-value copy above
// the threshold: a module named type or an array, sized with the gc
// amd64 layout (alignment padding included). Types declared outside
// the module (sync.Mutex, time.Time) are never flagged.
func bigValue(pass *Pass, t types.Type) (int64, string, bool) {
	if t == nil {
		return 0, "", false
	}
	_, isArray := t.(*types.Array)
	if _, inModule := pass.Index.namedKey(t); !inModule && !isArray {
		return 0, "", false
	}
	size := gcSizes.Sizeof(t)
	if size <= bigCopyThreshold {
		return 0, "", false
	}
	qual := func(p *types.Package) string {
		if p == pass.Types {
			return ""
		}
		return p.Name()
	}
	if isArray {
		return size, types.TypeString(t.(*types.Array).Elem(), qual) + " array", true
	}
	return size, types.TypeString(t, qual), true
}
