package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the transitive interprocedural layer: every module
// function/method with a body gets a summary — which lock
// classes it may acquire or release (directly or through any chain of
// resolved calls), whether it can block, what it does to each
// *sync.WaitGroup parameter, whether a scratch- or Closer-typed
// parameter escapes it, whether it spawns a goroutine nothing joins,
// whether it returns a caller-owned Closer, and whether it closes a
// Closer parameter on every path. Summaries are computed bottom-up over
// the strongly-connected-component condensation of the call graph
// (scc.go): acyclic regions converge in one pass, recursive components
// iterate to a fixed point. Every propagated fact is monotone (a set
// that only grows, a bool that only flips one way), so the iteration
// terminates; a safety cap bounds pathological components, and a
// function whose component hits the cap is reported under the
// pseudo-rule "lintbudget" rather than silently skipped — its facts
// remain sound under-approximations. Callees resolve through
// types.Info.Uses to their *types.Func; a call of a function value or of
// a function outside the module has no summary and contributes nothing.

// sccIterationCap bounds fixed-point passes over one recursive
// component. It is a package variable so tests can lower it to exercise
// the lintbudget path; real components converge in a handful of passes
// (facts are small monotone sets).
var sccIterationCap = 32

// wgParamFact summarizes what a function does to one of its
// *sync.WaitGroup parameters.
type wgParamFact struct {
	name string
	// doneEver: some statement-level Done (or defer Done) on the param.
	doneEver bool
	// doneAlways: a Done is reached on every path to the normal exit.
	doneAlways bool
	// addsInside: the function calls Add on the param it was handed.
	addsInside bool
}

// summaryCall is one resolved call site inside a function body.
type summaryCall struct {
	key string
	pos token.Pos
	// argNames holds, positionally, the plain-identifier argument names
	// ("" for anything else), so param-indexed facts of the callee can be
	// mapped back onto caller parameters. Only meaningful when ellipsis
	// is false and the callee is not variadic.
	argNames []string
	ellipsis bool
}

// funcDecl is one function or method declaration with its context.
type funcDecl struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
	fn   *types.Func
}

// funcSummary is the transitive interprocedural summary of one function.
type funcSummary struct {
	key string
	fd  *funcDecl

	// calls are the resolved synchronous call sites: straight-line calls
	// plus deferred ones (both run on the calling goroutine). Calls
	// inside go statements and non-deferred function literals are
	// excluded. goCalls are the resolved targets of go statements.
	calls   []summaryCall
	goCalls []summaryCall

	// acquires maps lock class -> first site where the function may
	// acquire it, directly or through any resolved call chain.
	// acquiresVia records the call chain for transitive entries ("" or
	// absent for direct acquisitions). releases is the analogous
	// may-release set.
	acquires    map[string]token.Pos
	acquiresVia map[string]string
	releases    map[string]bool

	// blocking: some path can execute a potentially-blocking synchronous
	// op (channel send/receive outside select clauses, a select without
	// default, range over a channel, .Wait(), or a call to a blocking
	// function). blockingVia is the call chain ("" when direct).
	blocking     bool
	blockingWhat string
	blockingVia  string

	// wgParams maps parameter position -> WaitGroup facts, for every
	// parameter typed *sync.WaitGroup. These stay one-level: waitbalance
	// checks the helper a goroutine directly runs.
	wgParams map[int]wgParamFact

	// paramCount/variadic describe the parameter list, for positional
	// arg->param fact mapping at call sites.
	paramCount int
	variadic   bool
	// paramNames holds the parameter names by position ("" for _).
	paramNames []string

	// scratchParams maps scratch-typed parameter positions (see
	// scratchTypes) to the qualified type name; closerParams does the
	// same for pointers to module types with a Close method.
	scratchParams map[int]string
	closerParams  map[int]string

	// paramEscapes maps tracked (scratch- or closer-typed) parameter
	// positions to the call chain through which they escape ("" for a
	// direct escape in this body). scratchEscapes remains the "any
	// scratch param escapes" roll-up.
	paramEscapes   map[int]string
	scratchEscapes bool

	// closesParams: closer-typed parameter positions on which Close is
	// reached on every path to the normal exit (directly or via a callee
	// that closes its corresponding parameter). A must-fact: starts
	// false, flips true only when proven.
	closesParams map[int]bool

	// closerResults marks result positions that hand the caller a
	// Closer it becomes responsible for: a freshly constructed value of
	// a Closer type, or the passed-through result of a callee that does.
	closerResults []bool

	// spawnsUnjoined: the function (or a callee chain) starts a
	// goroutine that is not joined in its spawning function. spawnVia is
	// the call chain ("" when the go statement is in this body).
	spawnsUnjoined bool
	spawnVia       string
	spawnPos       token.Pos

	// capped: this function's component hit sccIterationCap before the
	// fixed point settled; facts are sound but possibly incomplete. Also
	// reported as a lintbudget diagnostic.
	capped bool
}

// callGraph caches summaries keyed by Index.funcKey, plus the
// lintbudget diagnostics produced while building them.
type callGraph struct {
	idx       *Index
	summaries map[string]*funcSummary
	budget    []Diagnostic
}

// callGraph builds (once per Index) the transitive summary table.
func (idx *Index) callGraph() *callGraph {
	idx.cgOnce.Do(func() {
		idx.cg = buildCallGraph(idx)
	})
	return idx.cg
}

// summaryWork keeps the per-function analysis context alive across
// fixed-point passes: the CFG and classifier are built once in the
// direct phase and reused by every transfer.
type summaryWork struct {
	sum *funcSummary
	g   *cfg
	cls *opClassifier
	// returns are the function's return statements (function literals
	// excluded), for the closerResults recomputation.
	returns []*ast.ReturnStmt
	// origins maps single-assignment local names to where their value
	// came from, for tracing returned locals back to constructors.
	origins map[string]*valueOrigin
}

// valueOrigin records where a local's value came from.
type valueOrigin struct {
	multi     bool   // assigned more than once: unusable
	callKey   string // resolved callee, "" for non-call origins
	resultPos int    // which result of the callee
	fresh     bool   // &T{} / new(T) construction
	typeName  string // qualified type for fresh origins
}

// cgBuilder carries the whole-module build state.
type cgBuilder struct {
	idx         *Index
	cg          *callGraph
	summaries   map[string]*funcSummary
	works       []*summaryWork
	closerTypes map[string]bool
}

func buildCallGraph(idx *Index) *callGraph {
	cg := &callGraph{idx: idx, summaries: map[string]*funcSummary{}}
	b := &cgBuilder{idx: idx, cg: cg, summaries: cg.summaries, closerTypes: collectCloserTypes(idx)}

	// One node per function with a body, registered before any body is
	// analyzed so the pool-worker check can look up sibling methods.
	// Several declarations of one key (init functions) keep the first.
	var keys []string
	for _, pkg := range idx.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				key := idx.funcKey(fn)
				if key == "" || cg.summaries[key] != nil {
					continue
				}
				cg.summaries[key] = &funcSummary{key: key, fd: &funcDecl{pkg: pkg, file: f, decl: fd, fn: fn}}
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys)

	// Direct phase: each summary's facts from its own body.
	for _, key := range keys {
		b.works = append(b.works, b.directSummary(cg.summaries[key]))
	}

	// Condense the call graph and propagate bottom-up: Tarjan emits
	// components callees-first, so by the time a component is processed
	// every summary it depends on outside itself is final.
	pos := make(map[string]int, len(b.works))
	for i, w := range b.works {
		pos[w.sum.key] = i
	}
	g := &sccGraph{n: len(b.works), edges: make([][]int, len(b.works))}
	for i, w := range b.works {
		for _, c := range w.sum.calls {
			if j, ok := pos[c.key]; ok {
				g.edges[i] = append(g.edges[i], j)
			}
		}
		for _, c := range w.sum.goCalls {
			if j, ok := pos[c.key]; ok {
				g.edges[i] = append(g.edges[i], j)
			}
		}
	}

	for _, comp := range g.condense() {
		// An acyclic node's callees are all final by reverse-topological
		// order: a single transfer pass reaches its fixed point, and the
		// iteration cap never applies outside genuine recursion.
		if len(comp) == 1 {
			selfEdge := false
			for _, j := range g.edges[comp[0]] {
				if j == comp[0] {
					selfEdge = true
					break
				}
			}
			if !selfEdge {
				b.transfer(b.works[comp[0]])
				continue
			}
		}
		converged := false
		for pass := 0; pass < sccIterationCap; pass++ {
			changed := false
			for _, i := range comp {
				if b.transfer(b.works[i]) {
					changed = true
				}
			}
			if !changed {
				converged = true
				break
			}
		}
		if converged {
			continue
		}
		// Cap hit: the component's facts are sound (must-facts only flip
		// when proven, may-facts only record real edges) but possibly
		// incomplete. Say so instead of silently under-analyzing.
		for _, i := range comp {
			sum := b.works[i].sum
			sum.capped = true
			cg.budget = append(cg.budget, diagnostic("lintbudget", fmt.Sprintf(
				"summary for %s hit the fixed-point iteration cap (%d passes) in a recursive call cycle; interprocedural facts for it may be incomplete",
				lockClassDisplay(sum.key), sccIterationCap), idx.fset.Position(sum.fd.decl.Pos())))
		}
	}
	return cg
}

// collectCloserTypes finds every package-level module named type that
// declares a Close method.
func collectCloserTypes(idx *Index) map[string]bool {
	out := map[string]bool{}
	for _, p := range idx.pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			n, ok := scope.Lookup(name).Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				if n.Method(i).Name() == "Close" {
					key, _ := idx.namedKey(n)
					out[key] = true
				}
			}
		}
	}
	return out
}

// directSummary computes the one-body facts of a function and retains
// the analysis context for the propagation phase.
func (b *cgBuilder) directSummary(sum *funcSummary) *summaryWork {
	idx, fd := b.idx, sum.fd
	sum.acquires = map[string]token.Pos{}
	sum.acquiresVia = map[string]string{}
	sum.releases = map[string]bool{}
	sum.wgParams = map[int]wgParamFact{}
	sum.scratchParams = map[int]string{}
	sum.closerParams = map[int]string{}
	sum.paramEscapes = map[int]string{}
	sum.closesParams = map[int]bool{}
	info := fd.pkg.Info
	g := buildCFG(fd.decl.Body)
	cls := &opClassifier{idx: idx, info: info, resolveCalls: true}
	w := &summaryWork{sum: sum, g: g, cls: cls}

	ops := collectLockOps(g, cls)
	for _, blockOps := range ops {
		for _, op := range blockOps {
			switch op.kind {
			case opAcquire:
				if op.class == "" {
					continue
				}
				if _, seen := sum.acquires[op.class]; !seen {
					sum.acquires[op.class] = op.pos
				}
			case opRelease, opDeferRelease:
				if op.class != "" {
					sum.releases[op.class] = true
				}
			case opBlocking:
				if !sum.blocking {
					sum.blocking = true
					sum.blockingWhat = op.what
				}
			case opCall:
				sum.calls = append(sum.calls, makeSummaryCall(op.callKey, op.call))
			}
		}
	}
	// Deferred calls run synchronously on exit paths: resolve `defer
	// helper(...)` and the calls inside `defer func() { ... }()` bodies
	// (excluding nested literals and go statements).
	collectDeferredCalls(fd.decl.Body, cls, &sum.calls)
	// Resolved go-statement targets, for spawn-fact propagation only.
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if k := cls.calleeKey(gs.Call); k != "" {
			sum.goCalls = append(sum.goCalls, makeSummaryCall(k, gs.Call))
		}
		return true
	})

	// Parameter facts.
	sig := fd.fn.Signature()
	sum.variadic = sig.Variadic()
	sum.paramCount = sig.Params().Len()
	for p := 0; p < sum.paramCount; p++ {
		v := sig.Params().At(p)
		pname := v.Name()
		if pname == "_" {
			pname = ""
		}
		sum.paramNames = append(sum.paramNames, pname)
		if pname == "" {
			continue
		}
		key := idx.ptrToKey(v.Type())
		switch {
		case key == "sync.WaitGroup":
			sum.wgParams[p] = wgParamFact{
				name:       pname,
				doneEver:   nodeCallsMethodOn(fd.decl.Body, pname, "Done"),
				doneAlways: g.mustExecuteAtExit(func(n ast.Node) bool { return nodeCallsMethodOn(n, pname, "Done") }),
				addsInside: nodeCallsMethodOn(fd.decl.Body, pname, "Add"),
			}
		case scratchTypes[key]:
			sum.scratchParams[p] = key
		case b.closerTypes[key]:
			sum.closerParams[p] = key
		}
		if (scratchTypes[key] || b.closerTypes[key]) && paramEscapes(fd.decl.Body, pname) {
			sum.paramEscapes[p] = ""
		}
	}
	for p := range sum.scratchParams {
		if _, esc := sum.paramEscapes[p]; esc {
			sum.scratchEscapes = true
		}
	}

	// Direct spawn fact: a go statement not joined in this body, unless
	// suppressed with //lint:ignore goleak (an annotated spawn is a
	// declared ownership transfer and must not taint callers).
	waited, received := collectJoins(info, fd.decl.Body)
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok || sum.spawnsUnjoined {
			return !sum.spawnsUnjoined
		}
		if goStmtJoined(b.cg, info, waited, received, gs) {
			return true
		}
		line := fd.file.Fset.Position(gs.Pos()).Line
		if set := fd.file.ignores[line]; set != nil && (set["goleak"] || set["*"]) {
			return true
		}
		sum.spawnsUnjoined = true
		sum.spawnPos = gs.Pos()
		return false
	})

	// Value origins and return statements for the closer analysis.
	w.origins = collectOrigins(fd.decl.Body, cls)
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			w.returns = append(w.returns, x)
		}
		return true
	})
	sum.closerResults = make([]bool, sig.Results().Len())
	return w
}

// makeSummaryCall records a resolved call site with its positional
// identifier arguments.
func makeSummaryCall(key string, call *ast.CallExpr) summaryCall {
	c := summaryCall{key: key, pos: call.Pos()}
	if call != nil {
		c.ellipsis = call.Ellipsis.IsValid()
		c.argNames = make([]string, len(call.Args))
		for i, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok {
				c.argNames[i] = id.Name
			}
		}
	} else {
		c.ellipsis = true // unknown arguments: disable positional mapping
	}
	return c
}

// collectDeferredCalls resolves `defer helper(...)` statements and the
// direct calls inside deferred function literals; both run on the
// calling goroutine before it returns.
func collectDeferredCalls(body *ast.BlockStmt, cls *opClassifier, out *[]summaryCall) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					switch mm := m.(type) {
					case *ast.GoStmt, *ast.FuncLit:
						return false
					case *ast.CallExpr:
						if k := cls.calleeKey(mm); k != "" {
							*out = append(*out, makeSummaryCall(k, mm))
						}
					}
					return true
				})
			} else if k := cls.calleeKey(x.Call); k != "" {
				*out = append(*out, makeSummaryCall(k, x.Call))
			}
			return false
		}
		return true
	})
}

// collectOrigins maps every single-assignment local to the expression
// that produced its value. Names assigned more than once are marked
// multi and never used. Function literal bodies are excluded (their
// locals share names but not values).
func collectOrigins(body *ast.BlockStmt, cls *opClassifier) map[string]*valueOrigin {
	origins := map[string]*valueOrigin{}
	record := func(name string, o *valueOrigin) {
		if name == "" || name == "_" {
			return
		}
		if prev, seen := origins[name]; seen {
			prev.multi = true
			return
		}
		if o == nil {
			o = &valueOrigin{}
		}
		origins[name] = o
	}
	classify := func(e ast.Expr, resultPos int) *valueOrigin {
		switch x := e.(type) {
		case *ast.CallExpr:
			if isNewCall(x) {
				return &valueOrigin{fresh: true, typeName: cls.idx.ptrToKey(cls.info.TypeOf(x))}
			}
			if k := cls.calleeKey(x); k != "" {
				return &valueOrigin{callKey: k, resultPos: resultPos}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := x.X.(*ast.CompositeLit); isLit {
					return &valueOrigin{fresh: true, typeName: cls.idx.ptrToKey(cls.info.TypeOf(x))}
				}
			}
		}
		return &valueOrigin{}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				// x, err := f(): every LHS ident originates from result i.
				for i, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id.Name, classify(st.Rhs[0], i))
					}
				}
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(st.Rhs) {
					continue
				}
				record(id.Name, classify(st.Rhs[i], 0))
			}
		case *ast.GenDecl:
			if st.Tok != token.VAR {
				return true
			}
			for _, s := range st.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						record(name.Name, classify(vs.Values[i], 0))
					} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
						record(name.Name, classify(vs.Values[0], i))
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					record(id.Name, &valueOrigin{})
				}
			}
		}
		return true
	})
	return origins
}

// isNewCall matches the builtin new(T).
func isNewCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "new" && len(call.Args) == 1
}

// viaChain prefixes a callee onto an existing chain for display:
// viaChain("internal/x.f", "") = "x.f"; viaChain("internal/x.f", "x.g")
// = "x.f -> x.g".
func viaChain(key, rest string) string {
	d := lockClassDisplay(key)
	if rest == "" {
		return d
	}
	return d + " -> " + rest
}

// transfer re-evaluates one function against the current summaries of
// its callees, returning whether anything changed. All updates are
// monotone, so repeated application inside a component reaches a fixed
// point.
func (b *cgBuilder) transfer(w *summaryWork) bool {
	f := w.sum
	changed := false
	for _, c := range f.calls {
		s := b.summaries[c.key]
		if s == nil || s.key == f.key {
			continue
		}
		if s.blocking && !f.blocking {
			f.blocking = true
			f.blockingWhat = s.blockingWhat
			f.blockingVia = viaChain(c.key, s.blockingVia)
			changed = true
		}
		if len(s.acquires) > 0 {
			classes := make([]string, 0, len(s.acquires))
			for cl := range s.acquires {
				classes = append(classes, cl)
			}
			sort.Strings(classes)
			for _, cl := range classes {
				if _, seen := f.acquires[cl]; !seen {
					f.acquires[cl] = c.pos
					f.acquiresVia[cl] = viaChain(c.key, s.acquiresVia[cl])
					changed = true
				}
			}
		}
		for cl := range s.releases {
			if !f.releases[cl] {
				f.releases[cl] = true
				changed = true
			}
		}
		if s.spawnsUnjoined && !f.spawnsUnjoined {
			f.spawnsUnjoined = true
			f.spawnVia = viaChain(c.key, s.spawnVia)
			f.spawnPos = c.pos
			changed = true
		}
		// A tracked caller parameter handed to a callee position that
		// escapes the callee escapes the caller too.
		if len(s.paramEscapes) > 0 && callArgsAlign(c, s) {
			poss := make([]int, 0, len(s.paramEscapes))
			for p := range s.paramEscapes {
				poss = append(poss, p)
			}
			sort.Ints(poss)
			for _, p := range poss {
				name := c.argNames[p]
				if name == "" {
					continue
				}
				cp, tracked := f.trackedParamPos(name)
				if !tracked {
					continue
				}
				if _, seen := f.paramEscapes[cp]; !seen {
					f.paramEscapes[cp] = viaChain(c.key, s.paramEscapes[p])
					changed = true
				}
			}
		}
	}
	// A goroutine target that itself leaks a spawn leaks regardless of
	// whether the immediate go statement is joined.
	for _, c := range f.goCalls {
		s := b.summaries[c.key]
		if s == nil || s.key == f.key {
			continue
		}
		if s.spawnsUnjoined && !f.spawnsUnjoined {
			f.spawnsUnjoined = true
			f.spawnVia = viaChain(c.key, s.spawnVia)
			f.spawnPos = c.pos
			changed = true
		}
	}
	for p := range f.scratchParams {
		if _, esc := f.paramEscapes[p]; esc && !f.scratchEscapes {
			f.scratchEscapes = true
			changed = true
		}
	}

	// closesParams: must-close proof over the CFG, re-run because a
	// callee's closesParams growing can complete a path's proof.
	if len(f.closerParams) > 0 {
		poss := make([]int, 0, len(f.closerParams))
		for p := range f.closerParams {
			poss = append(poss, p)
		}
		sort.Ints(poss)
		for _, p := range poss {
			if f.closesParams[p] || f.paramNames[p] == "" {
				continue
			}
			name := f.paramNames[p]
			match := func(n ast.Node) bool { return b.nodeClosesIdent(w, n, name) }
			if nodeCallsMethodOn(f.fd.decl.Body, name, "Close") || b.bodyHasClosingCall(w, name) {
				if w.g.mustExecuteAtExit(match) {
					f.closesParams[p] = true
					changed = true
				}
			}
		}
	}

	// closerResults: does any return statement hand the caller a Closer
	// it owns? Monotone per position.
	if len(f.closerResults) > 0 && len(w.returns) > 0 {
		for _, rs := range w.returns {
			if len(rs.Results) == 0 {
				continue // naked return of named results: degrade to silence
			}
			if len(rs.Results) == 1 && len(f.closerResults) > 1 {
				// return f(): pass-through of a multi-result callee.
				call, ok := rs.Results[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				k := w.cls.calleeKey(call)
				s := b.summaries[k]
				if s == nil || len(s.closerResults) != len(f.closerResults) {
					continue
				}
				for i, owned := range s.closerResults {
					if owned && !f.closerResults[i] {
						f.closerResults[i] = true
						changed = true
					}
				}
				continue
			}
			for i, e := range rs.Results {
				if i >= len(f.closerResults) || f.closerResults[i] {
					continue
				}
				if b.ownedCloserExpr(w, e) {
					f.closerResults[i] = true
					changed = true
				}
			}
		}
	}
	return changed
}

// callArgsAlign reports whether positional arg->param mapping is valid
// for this call site: exact arity, no variadic on either end.
func callArgsAlign(c summaryCall, callee *funcSummary) bool {
	return !c.ellipsis && !callee.variadic && len(c.argNames) == callee.paramCount
}

// trackedParamPos maps a name to the position of a tracked (scratch- or
// closer-typed) parameter of f.
func (f *funcSummary) trackedParamPos(name string) (int, bool) {
	for p, n := range f.paramNames {
		if n != name || n == "" {
			continue
		}
		if _, ok := f.scratchParams[p]; ok {
			return p, true
		}
		if _, ok := f.closerParams[p]; ok {
			return p, true
		}
	}
	return 0, false
}

// bodyHasClosingCall reports whether the body contains any resolved
// call that closes the named value — a cheap pre-filter before the
// must-execute dataflow runs.
func (b *cgBuilder) bodyHasClosingCall(w *summaryWork, name string) bool {
	found := false
	ast.Inspect(w.sum.fd.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && callClosesIdent(b.summaries, w.cls, call, name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// nodeClosesIdent delegates to the shared matcher (also used by the
// closecheck rule).
func (b *cgBuilder) nodeClosesIdent(w *summaryWork, n ast.Node, name string) bool {
	return closesIdentNode(b.summaries, w.cls, n, name)
}

// closesIdentNode reports whether executing n discharges the obligation
// to close the named value: a (possibly deferred) name.Close() call, or
// a (possibly deferred) resolved call passing name at a parameter
// position the callee provably closes.
func closesIdentNode(summaries map[string]*funcSummary, cls *opClassifier, n ast.Node, name string) bool {
	if nodeCallsMethodOn(n, name, "Close") {
		return true
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch mm := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if callClosesIdent(summaries, cls, mm.Call, name) {
				found = true
				return false
			}
			if lit, ok := mm.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(k ast.Node) bool {
					if found {
						return false
					}
					if call, ok := k.(*ast.CallExpr); ok && callClosesIdent(summaries, cls, call, name) {
						found = true
					}
					return !found
				})
			}
			return false
		case *ast.CallExpr:
			if callClosesIdent(summaries, cls, mm, name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// callClosesIdent reports whether this call provably closes the named
// value: a resolved callee with an exact positional match whose
// parameter at name's position has closesParams proven.
func callClosesIdent(summaries map[string]*funcSummary, cls *opClassifier, call *ast.CallExpr, name string) bool {
	if call.Ellipsis.IsValid() {
		return false
	}
	k := cls.calleeKey(call)
	if k == "" {
		return false
	}
	s := summaries[k]
	if s == nil || len(s.closesParams) == 0 || s.variadic || len(call.Args) != s.paramCount {
		return false
	}
	for i, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && id.Name == name && s.closesParams[i] {
			return true
		}
	}
	return false
}

// ownedCloserExpr reports whether a returned expression hands the
// caller a Closer it becomes responsible for: a fresh construction of a
// Closer type, a call whose (single) result is an owned Closer, or a
// single-assignment local traced to either.
func (b *cgBuilder) ownedCloserExpr(w *summaryWork, e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		if isNewCall(x) {
			return b.freshCloserType(w, x)
		}
		k := w.cls.calleeKey(x)
		s := b.summaries[k]
		return s != nil && len(s.closerResults) == 1 && s.closerResults[0]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, isLit := x.X.(*ast.CompositeLit); isLit {
				return b.freshCloserType(w, x)
			}
		}
	case *ast.Ident:
		o := w.origins[x.Name]
		if o == nil || o.multi {
			return false
		}
		if o.fresh {
			return b.closerTypes[o.typeName]
		}
		if o.callKey != "" {
			s := b.summaries[o.callKey]
			return s != nil && o.resultPos < len(s.closerResults) && s.closerResults[o.resultPos]
		}
	}
	return false
}

// freshCloserType reports whether the constructed value is a pointer to
// a module Closer type.
func (b *cgBuilder) freshCloserType(w *summaryWork, e ast.Expr) bool {
	return b.closerTypes[b.idx.ptrToKey(w.cls.info.TypeOf(e))]
}

// collectJoins gathers the join handles of a function body: canonical
// receivers of .Wait() calls, and canonical channels received from
// (<-ch, range ch). Shared by goleak and the spawn summary.
func collectJoins(info *types.Info, body *ast.BlockStmt) (waited, received map[string]bool) {
	waited = map[string]bool{}
	received = map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if recv, ok := methodCall(x, "Wait"); ok {
				waited[recv] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if s := exprString(x.X); s != "" {
					received[s] = true
				}
			}
		case *ast.RangeStmt:
			if isChan(info.TypeOf(x.X)) {
				if s := exprString(x.X); s != "" {
					received[s] = true
				}
			}
		}
		return true
	})
	return waited, received
}

// goStmtJoined reports whether a go statement's goroutine is joined in
// the spawning function: it Dones a waited WaitGroup or sends/closes a
// received channel, is handed a joined handle as an argument, or is the
// recognized pool-worker idiom. Shared by goleak and the spawn summary.
func goStmtJoined(cg *callGraph, info *types.Info, waited, received map[string]bool, g *ast.GoStmt) bool {
	joins := func(name string) bool { return waited[name] || received[name] }
	if lit, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
		joined := false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if joined {
				return false
			}
			switch y := m.(type) {
			case *ast.CallExpr:
				// wg.Done() / close(ch) on a joined handle.
				if recv, ok := methodCall(y, "Done"); ok && waited[recv] {
					joined = true
				}
				if id, isIdent := y.Fun.(*ast.Ident); isIdent && id.Name == "close" && len(y.Args) == 1 {
					if received[exprString(y.Args[0])] {
						joined = true
					}
				}
			case *ast.SendStmt:
				if received[exprString(y.Chan)] {
					joined = true
				}
			}
			return true
		})
		if joined {
			return true
		}
	}
	// A joined handle passed as an argument (go worker(&wg, ch)) ties
	// the goroutine's lifetime to it as well.
	for _, arg := range g.Call.Args {
		e := arg
		if u, isAddr := e.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			e = u.X
		}
		if s := exprString(e); s != "" && joins(s) {
			return true
		}
	}
	return poolWorkerJoined(cg, info, g.Call)
}

// nodeCallsMethodOn reports whether n contains a call recv.method(...)
// that runs when control passes through n: direct statement-level
// calls, and deferred calls (defer recv.method() or a deferred literal
// containing one). Code inside go statements never counts; code inside
// a non-deferred function literal only runs if the literal is invoked,
// which is over-approximated as counting — the consumers use this
// matcher where over-matching silences a finding, never creates one.
func nodeCallsMethodOn(n ast.Node, recv, method string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch mm := m.(type) {
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if r, ok := methodCall(mm.Call, method); ok && r == recv {
				found = true
				return false
			}
			if lit, ok := mm.Call.Fun.(*ast.FuncLit); ok && nodeCallsMethodOn(lit.Body, recv, method) {
				found = true
			}
			return false
		case *ast.CallExpr:
			if r, ok := methodCall(mm, method); ok && r == recv {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// paramEscapes is the summary-grade escape check for a tracked
// (scratch- or closer-typed) parameter: the same shapes the
// scratchshare rule rejects, minus alias tracking (a summary consumer
// only needs "can this helper leak the loan", and a miss degrades to
// silence in the consumer).
func paramEscapes(body *ast.BlockStmt, name string) bool {
	isParam := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == name
	}
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				if !isParam(rhs) || i >= len(st.Lhs) {
					continue
				}
				if _, isIdent := st.Lhs[i].(*ast.Ident); !isIdent {
					escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if isParam(res) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if isParam(st.Value) {
				escapes = true
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isParam(v) {
					escapes = true
				}
			}
		case *ast.GoStmt:
			for _, arg := range st.Call.Args {
				if isParam(arg) {
					escapes = true
				}
			}
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && id.Name == name {
						escapes = true
					}
					return !escapes
				})
			}
		}
		return true
	})
	return escapes
}
