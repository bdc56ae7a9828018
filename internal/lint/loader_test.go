package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// loadTree parses and type-checks a source tree, failing the test on
// any parse or type error.
func loadTree(t *testing.T, root string) *Index {
	t.Helper()
	idx, diags, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("load diagnostic in %s: %s", root, d.String())
	}
	return idx
}

// TestLoaderTypeChecksEveryPackage checks that the module and the
// fixture tree type-check with zero typecheck diagnostics, test files
// and external test packages included.
func TestLoaderTypeChecksEveryPackage(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleRoot, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{moduleRoot, fixtures} {
		idx := loadTree(t, root)
		external := 0
		for _, p := range idx.pkgs {
			if p.Types == nil || p.Info == nil || !p.Types.Complete() {
				t.Errorf("%s: package %s (%s) not type-checked", root, p.Name, p.Dir)
			}
			if p.externalTest() {
				external++
			}
		}
		if root == moduleRoot && external == 0 {
			t.Errorf("module has external test packages, none were loaded")
		}
	}
}

// TestTypeErrorIsDiagnosed runs the suite over a fixture with one type
// error: the run reports it as exactly one typecheck diagnostic.
func TestTypeErrorIsDiagnosed(t *testing.T) {
	root, err := filepath.Abs("testdata/typeerr")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Rule != "typecheck" || diags[0].Line != 7 {
		t.Fatalf("want one typecheck diagnostic at p.go:7, got %v", diags)
	}
}

func TestFuncScopeFreshnessAndTyping(t *testing.T) {
	dir := t.TempDir()
	src := `package p

type T struct {
	N int
}

func NewT() *T { return &T{} }

func f(shared *T) {
	built := NewT()
	alias := built
	loaned := shared
	lit := &T{N: 1}
	var acc uint64
	acc += 1
	_ = acc
	_, _, _ = alias, loaned, lit
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := loadTree(t, dir).pkgs[0]
	var fd *ast.FuncDecl
	for _, decl := range pkg.Files[0].AST.Decls {
		if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Name == "f" {
			fd = d
		}
	}
	if fd == nil {
		t.Fatal("func f not found")
	}
	locals := map[string]types.Object{}
	for id, obj := range pkg.Info.Defs {
		if obj != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			locals[id.Name] = obj
		}
	}
	fresh := localFreshness(pkg.Info, fd)

	for name, wantFresh := range map[string]bool{
		"built": true, "alias": true, "lit": true,
		"shared": false, "loaned": false,
	} {
		if got := fresh[locals[name]]; got != wantFresh {
			t.Errorf("fresh[%s] = %v, want %v", name, got, wantFresh)
		}
	}
	for _, name := range []string{"built", "alias", "loaned", "shared", "lit"} {
		if got := types.TypeString(locals[name].Type(), types.RelativeTo(pkg.Types)); got != "*T" {
			t.Errorf("type of %s = %s, want *T", name, got)
		}
	}
	if w, unsigned, ok := intInfo(locals["acc"].Type()); !ok || w != 64 || !unsigned {
		t.Errorf("acc typed as (%d, unsigned=%v, ok=%v), want uint64", w, unsigned, ok)
	}
}
