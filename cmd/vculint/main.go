// Command vculint runs the project's zero-dependency static-analysis
// suite (internal/lint) over the module tree and exits non-zero when
// any rule fires. Every package, test files included, is type-checked
// with go/types first (standard-library imports from the gc export
// data); a type error is reported under the pseudo-rule "typecheck".
//
// Usage:
//
//	vculint [flags] [./... | dir ...]
//
// Flags:
//
//	-json        emit diagnostics as a JSON array (machine-readable,
//	             consumed by fleetsim/bench tooling and written to
//	             lint_report.json by scripts/check.sh)
//	-timing      include load (parse + type-check), summary and per-rule
//	             wall time; with -json the output
//	             becomes {"diagnostics": [...], "timing": {...}} so
//	             scripts/check.sh can enforce the lint latency budget
//	-rules a,b   run only the named analyzers
//	-list        print registered analyzers and exit
//	-par N       analyze N packages concurrently (0 = GOMAXPROCS);
//	             output is deterministic at any worker count
//
// Expression-level analyzers: determinism, hotalloc, errdrop, bigcopy.
//
// Type-driven analyzers:
//
//	scratchshare  a *motion.Scratch / *predict.NeighborBuf parameter
//	              must not escape the callee (stored, returned, sent,
//	              captured by a goroutine, or passed to a callee that
//	              transitively lets its parameter escape)
//	sharedmut     reference-slot frame/pyramid caches are written only
//	              inside constructor/build functions; everywhere else
//	              tile workers share them read-only
//	swarwidth     in internal/codec/motion and internal/bits: constant
//	              shifts past the operand width, 64-bit masks that are
//	              not byte/16/32-bit lane-periodic, and narrowing
//	              conversions of SWAR lane accumulators
//	goleak        a go statement in the scheduling/transcode/cluster/
//	              codec packages must be joined in the spawning
//	              function (WaitGroup or channel); resolved calls whose
//	              transitive summary spawns an unjoined goroutine are
//	              flagged at the call site
//
// Control-flow/call-graph analyzers, on transitive fixed-point summaries
// over the SCC condensation of the module call graph (see
// internal/lint/scc.go and internal/lint/callgraph.go):
//
//	lockhygiene   path-sensitive: every acquired mutex is released on
//	              every path to the exit (a defer only covers the paths
//	              that execute it), re-locking a held mutex and
//	              unlocking an unheld one are flagged
//	lockorder     two mutex classes acquired in both orders across
//	              cluster/sched/vcu — the deadlock precondition —
//	              chased through any depth of resolved module calls,
//	              with the discovery chain shown in the message
//	waitbalance   WaitGroup Add must be guaranteed before the spawn,
//	              Done must be reached on every path of the spawned
//	              body (directly or in a `go helper(&wg)` helper), and
//	              Add inside the spawned goroutine races Wait
//	heldblock     channel send/receive, blocking select, range over a
//	              channel, Wait, or a resolved call reaching any of
//	              these through any chain of resolved callees, while a
//	              mutex is held on some path
//
// Resource and capture analyzers, built on the transitive summaries:
//
//	closecheck    a local built by a constructor that returns a fresh
//	              Closer-bearing type (codec.NewEncoder, vcu queues)
//	              must be Closed on every normal exit path once used;
//	              ownership transfers silence the obligation
//	parcapture    closures that outlive their loop iteration capturing
//	              a shared loop variable, and goroutines in loops
//	              writing captured state without a lock
//
// A function whose recursive call cycle hits the summary iteration cap
// is reported under the pseudo-rule "lintbudget" (its facts stay sound
// but may be incomplete) rather than silently under-analyzed.
//
// Useful selections:
//
//	vculint -rules lockorder,waitbalance,heldblock ./...
//	vculint -par 8 -rules closecheck,parcapture ./...
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"openvcu/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("vculint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	timing := fs.Bool("timing", false, "report per-rule wall time (with -json: envelope with a timing object)")
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	par := fs.Int("par", 0, "packages analyzed concurrently (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *rules != "" {
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(stderr, "vculint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}

	// Positional arguments: "./..." (or none) means the whole module;
	// anything else is a directory restriction relative to the module
	// root.
	var dirs []string
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." || arg == "." {
			dirs = nil
			break
		}
		clean := filepath.ToSlash(filepath.Clean(strings.TrimSuffix(arg, "/...")))
		clean = strings.TrimPrefix(clean, "./")
		abs := clean
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, clean)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fmt.Fprintf(stderr, "vculint: %s is outside the module\n", arg)
			return 2
		}
		if fi, err := os.Stat(abs); err != nil || !fi.IsDir() {
			fmt.Fprintf(stderr, "vculint: %s is not a directory\n", arg)
			return 2
		}
		dirs = append(dirs, filepath.ToSlash(rel))
	}

	diags, report, err := lint.RunReport(lint.Config{Root: root, Analyzers: analyzers, Dirs: dirs, Workers: *par})
	if err != nil {
		fmt.Fprintln(stderr, "vculint:", err)
		return 2
	}

	// Report paths relative to the invocation directory, the way go
	// vet does, so editors can jump to them.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		// The bare -json output stays a plain Diagnostic array for
		// existing consumers; the timing envelope is opt-in.
		var payload any = diags
		if *timing {
			payload = struct {
				Diagnostics []lint.Diagnostic `json:"diagnostics"`
				Timing      *lint.Timing      `json:"timing"`
			}{diags, report}
		}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintln(stderr, "vculint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
		if *timing {
			names := make([]string, 0, len(report.RulesMS))
			for name := range report.RulesMS {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(stdout, "timing: load %.1fms\n", report.LoadMS)
			fmt.Fprintf(stdout, "timing: summaries %.1fms\n", report.SummaryMS)
			for _, name := range names {
				fmt.Fprintf(stdout, "timing: %-13s %.1fms\n", name, report.RulesMS[name])
			}
			fmt.Fprintf(stdout, "timing: total %.1fms\n", report.TotalMS)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "vculint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
