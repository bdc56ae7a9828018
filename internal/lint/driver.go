package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config controls one analysis run.
type Config struct {
	// Root is the directory treated as the module root. Package Dir
	// values are relative to it.
	Root string
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// Dirs restricts analysis to these root-relative directories (and
	// their subtrees). Nil means the whole tree.
	Dirs []string
	// Workers is the number of packages analyzed concurrently; 0 means
	// GOMAXPROCS. Output is deterministic regardless of the value: each
	// package's diagnostics are buffered privately and merged in package
	// order before the final sort.
	Workers int
}

// skipDirNames are directory basenames never descended into.
var skipDirNames = map[string]bool{
	".git":         true,
	"testdata":     true,
	"vendor":       true,
	"node_modules": true,
}

// Timing is the per-rule wall-time report of one run, written into
// lint_report.json by `vculint -timing` so scripts/check.sh can hold
// the lint suite to its latency budget.
type Timing struct {
	// LoadMS covers parsing and type-checking the module.
	LoadMS float64 `json:"load_ms"`
	// SummaryMS covers building the transitive call-graph summaries
	// (the SCC fixed point), which runs once up front so the parallel
	// per-package phase reads the call graph without synchronizing.
	SummaryMS float64 `json:"summary_ms"`
	// RulesMS maps analyzer name to its total wall time across all
	// packages (summed across workers, so it can exceed wall time when
	// Workers > 1). The module-wide lock-order analysis is billed to
	// "lockorder".
	RulesMS map[string]float64 `json:"rules_ms"`
	TotalMS float64            `json:"total_ms"`
}

// Run parses every Go package under cfg.Root, runs the configured
// analyzers, applies //lint:ignore suppressions, and returns the
// surviving diagnostics sorted by position.
func Run(cfg Config) ([]Diagnostic, error) {
	diags, _, err := RunReport(cfg)
	return diags, err
}

// RunReport is Run plus the per-rule timing report.
func RunReport(cfg Config) ([]Diagnostic, *Timing, error) {
	start := time.Now()
	timing := &Timing{RulesMS: map[string]float64{}}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	idx, loadDiags, err := load(cfg.Root)
	if err != nil {
		return nil, nil, err
	}
	timing.LoadMS = msSince(start)
	for _, a := range analyzers {
		timing.RulesMS[a.Name] += 0 // every configured rule appears in the report
	}

	// Module-wide analyses run eagerly before the fan-out: the workers
	// then only read the index, so the parallel phase needs no locks.
	sumStart := time.Now()
	cg := idx.callGraph()
	timing.SummaryMS = msSince(sumStart)
	for _, a := range analyzers {
		if a.Name == "lockorder" {
			loStart := time.Now()
			idx.lockOrderFindings()
			timing.RulesMS["lockorder"] += msSince(loStart)
		}
	}

	diags := append(loadDiags, cg.budget...)

	var work []*Package
	for _, pkg := range idx.pkgs {
		if cfg.Dirs != nil && !dirMatchesAny(pkg.Dir, cfg.Dirs) {
			continue
		}
		work = append(work, pkg)
	}
	type pkgResult struct {
		diags  []Diagnostic
		ruleMS map[string]float64
	}
	results := make([]pkgResult, len(work))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := &results[i]
				res.ruleMS = map[string]float64{}
				for _, a := range analyzers {
					pkg := work[i]
					pass := &Pass{Pkg: pkg, Index: idx, Types: pkg.Types, Info: pkg.Info, analyzer: a, fset: idx.fset, diags: &res.diags}
					ruleStart := time.Now()
					a.Run(pass)
					res.ruleMS[a.Name] += msSince(ruleStart)
				}
			}
		}()
	}
	for i := range work {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Merge in package order: findings are position-sorted below anyway,
	// but equal-position diagnostics keep a stable package-order tie.
	for i := range results {
		diags = append(diags, results[i].diags...)
		for name, ms := range results[i].ruleMS {
			timing.RulesMS[name] += ms
		}
	}

	diags = applySuppressions(idx.pkgs, diags)
	// The whole module is always loaded (type-checking needs it), so
	// pseudo-rule diagnostics emitted during loading (parse, typecheck,
	// lintdirective) must be filtered down to the requested subtree too.
	if cfg.Dirs != nil {
		kept := diags[:0]
		for _, d := range diags {
			rel, err := filepath.Rel(cfg.Root, d.File)
			if err != nil {
				kept = append(kept, d)
				continue
			}
			if dirMatchesAny(filepath.ToSlash(filepath.Dir(rel)), cfg.Dirs) {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	timing.TotalMS = msSince(start)
	return diags, timing, nil
}

// msSince converts elapsed time to milliseconds for the report.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// load parses and type-checks every Go package under root and returns
// the module index over them. Unparsable files and type errors become
// diagnostics under the pseudo-rules "parse" and "typecheck" rather
// than aborting the run, so one broken file does not hide findings
// elsewhere, and a package the checker could not fully type is
// reported rather than silently analyzed less.
func load(root string) (*Index, []Diagnostic, error) {
	fset := token.NewFileSet()
	pkgs, diags, err := parsePackages(fset, root)
	if err != nil {
		return nil, nil, err
	}
	idx := &Index{fset: fset, modPath: modulePath(root), pkgs: pkgs, byTypes: map[*types.Package]*Package{}}
	c := &checker{idx: idx, byPath: map[string]*Package{}}
	for _, p := range pkgs {
		if _, dup := c.byPath[idx.importPath(p.Dir)]; !dup && !p.externalTest() {
			c.byPath[idx.importPath(p.Dir)] = p
		}
	}
	c.std = exportImporter(fset, root, c.byPath, pkgs)
	c.conf = types.Config{
		Importer: c,
		Sizes:    gcSizes,
		Error: func(err error) {
			te := err.(types.Error)
			diags = append(diags, diagnostic("typecheck", te.Msg, te.Fset.Position(te.Pos)))
		},
	}
	for _, p := range pkgs {
		c.check(p)
		idx.byTypes[p.Types] = p
	}
	return idx, diags, nil
}

// gcSizes is the memory layout the rules reason about (bigcopy sizes,
// integer widths): the gc toolchain on amd64.
var gcSizes = types.SizesFor("gc", "amd64")

// checker type-checks module packages on demand: importing a module
// package checks it first, so every package is checked once, after its
// dependencies, whatever order the walk found them in.
type checker struct {
	idx    *Index
	byPath map[string]*Package // importable module packages
	std    types.Importer      // everything outside the module
	conf   types.Config
}

// Import resolves a module import to its checked package and anything
// else through the gc export data.
func (c *checker) Import(path string) (*types.Package, error) {
	p := c.byPath[path]
	if p == nil {
		return c.std.Import(path)
	}
	c.check(p)
	if p.Types == nil {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	return p.Types, nil
}

// check type-checks p once. Info is set before checking starts, so a
// re-entrant import of p (a cycle) finds Types still nil.
func (c *checker) check(p *Package) {
	if p.Info != nil {
		return
	}
	p.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		files[i] = f.AST
	}
	pkgPath := c.idx.importPath(p.Dir)
	if c.byPath[pkgPath] != p {
		pkgPath += "_test"
	}
	// Check always returns a package; its errors went to conf.Error.
	p.Types, _ = c.conf.Check(pkgPath, c.idx.fset, files, p.Info)
}

// exportImporter returns the gc importer for every import outside the
// module. It locates the export data of all of them with one
// `go list -export` run, where the importer's default lookup would run
// one per package. An import go list cannot build has no entry, and
// importing it fails with a typecheck diagnostic.
func exportImporter(fset *token.FileSet, root string, module map[string]*Package, pkgs []*Package) types.Importer {
	seen := map[string]bool{}
	args := []string{"list", "-e", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, imp := range f.AST.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err == nil && module[path] == nil && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	exports := map[string]string{}
	if len(seen) > 0 {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		out, _ := cmd.Output() // packages it could not list are missing below
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list found no export data for %q", path)
		}
		return os.Open(file)
	})
}

// modulePath reads the module path from root/go.mod; "" when the tree
// has no go.mod, in which case a package's import path is its
// directory.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// importPath is the import path of the module package in dir.
func (idx *Index) importPath(dir string) string {
	if dir == "." && idx.modPath != "" {
		return idx.modPath
	}
	return path.Join(idx.modPath, dir)
}

// parsePackages walks root collecting and parsing every .go file,
// grouped by (directory, package name).
func parsePackages(fset *token.FileSet, root string) ([]*Package, []Diagnostic, error) {
	byKey := map[string]*Package{}
	var parseDiags []Diagnostic

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (skipDirNames[d.Name()] || strings.HasPrefix(d.Name(), "_") || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			return relErr
		}
		rel = filepath.ToSlash(rel)
		astFile, parseErr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if parseErr != nil {
			parseDiags = append(parseDiags, diagnostic("parse", parseErr.Error(), token.Position{Filename: path, Line: 1, Column: 1}))
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "" {
			dir = "."
		}
		pkgName := astFile.Name.Name
		key := dir + "\x00" + pkgName
		pkg := byKey[key]
		if pkg == nil {
			pkg = &Package{Dir: dir, Name: pkgName}
			byKey[key] = pkg
		}
		f := &File{
			Path:    rel,
			AST:     astFile,
			Fset:    fset,
			IsTest:  strings.HasSuffix(d.Name(), "_test.go"),
			ignores: map[int]map[string]bool{},
		}
		collectIgnores(fset, astFile, f.ignores, &parseDiags)
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}

	pkgs := make([]*Package, 0, len(byKey))
	for _, p := range byKey {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Path < p.Files[j].Path })
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Dir != pkgs[j].Dir {
			return pkgs[i].Dir < pkgs[j].Dir
		}
		return pkgs[i].Name < pkgs[j].Name
	})
	return pkgs, parseDiags, nil
}

// pseudoRules are diagnostic sources that are not registered analyzers
// but are still valid in //lint:ignore directives.
var pseudoRules = map[string]bool{
	"parse":         true,
	"typecheck":     true,
	"lintdirective": true,
	"lintbudget":    true,
	"*":             true,
}

// knownRule reports whether name is addressable by an ignore directive:
// a registered analyzer, a pseudo-rule, or the wildcard.
func knownRule(name string) bool {
	return pseudoRules[name] || Lookup(name) != nil
}

// collectIgnores scans a file's comments for //lint:ignore directives
// and records which rules are suppressed on which lines. A directive
// suppresses its own line and the following line, so it works both as a
// trailing comment and as a standalone comment above the finding. The
// rule field may be a comma-separated list. Malformed directives
// (missing rule or reason) and unknown rule names — which would
// otherwise sit in the tree silently never matching anything — are
// reported under the pseudo-rule "lintdirective".
func collectIgnores(fset *token.FileSet, f *ast.File, ignores map[int]map[string]bool, diags *[]Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) < 2 {
				*diags = append(*diags, diagnostic("lintdirective", "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"", pos))
				continue
			}
			for _, rule := range strings.Split(fields[0], ",") {
				if !knownRule(rule) {
					*diags = append(*diags, diagnostic("lintdirective", fmt.Sprintf("unknown rule %q in //lint:ignore directive", rule), pos))
					continue
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := ignores[line]
					if set == nil {
						set = map[string]bool{}
						ignores[line] = set
					}
					set[rule] = true
				}
			}
		}
	}
}

// applySuppressions drops diagnostics silenced by //lint:ignore
// directives. Matching is by absolute file path as recorded in the
// FileSet, so it works for any Root.
func applySuppressions(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// abs file path -> line -> suppressed rules
	byFile := map[string]map[int]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if len(f.ignores) == 0 {
				continue
			}
			abs := f.Fset.Position(f.AST.Pos()).Filename
			byFile[abs] = f.ignores
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if rules, ok := byFile[d.File]; ok {
			if set, ok := rules[d.Line]; ok && (set[d.Rule] || set["*"]) {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// FindModuleRoot walks upward from dir looking for go.mod, so the CLI
// can be invoked from any subdirectory.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
