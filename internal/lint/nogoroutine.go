package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoGoroutine forbids real concurrency — go statements, channels, select —
// in model packages. The engine is single-threaded by design: modeled
// concurrency must be expressed as scheduled events or as sim.Proc/sim.Cond,
// which the engine runs in strict handoff. A raw goroutine or channel next
// to the event loop reintroduces scheduler-dependent interleavings (the
// exact failure mode the platform exists to exclude). internal/sim is
// covered too: Procs are stdlib coroutines (iter.Pull), so the engine needs
// no goroutine or channel of its own.
//
// One scoped exception exists: the deterministic parallel run harness in
// internal/bench fans fully independent engines (one per cell) across
// worker goroutines and merges results in fixed cell order. A function
// there whose doc comment carries the directive
//
//	//voyager:parallel-harness <why it stays deterministic>
//
// is exempt from this analyzer. The directive is honored only in
// startvoyager/internal/bench; placed anywhere else it is itself reported,
// so the allowance cannot silently spread.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements, channel operations, and select in model packages; " +
		"model concurrency with sim.Proc and sim.Cond",
	Applies: isModelPackage,
	Run:     runNoGoroutine,
}

// parallelHarnessDirective marks the one sanctioned real-concurrency site.
const parallelHarnessDirective = "//voyager:parallel-harness"

// parallelHarnessPkg is the only package whose directive is honored.
const parallelHarnessPkg = "startvoyager/internal/bench"

// hasParallelDirective reports whether the function's doc comment carries
// the parallel-harness directive.
func hasParallelDirective(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if c.Text == parallelHarnessDirective ||
			strings.HasPrefix(c.Text, parallelHarnessDirective+" ") {
			return true
		}
	}
	return false
}

func runNoGoroutine(pass *Pass) error {
	pkgPath := ""
	if pass.Pkg != nil {
		pkgPath = pass.Pkg.Path()
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasParallelDirective(fd) {
				if pkgPath == parallelHarnessPkg {
					continue // the sanctioned harness: skip the whole function
				}
				pass.Reportf(fd.Pos(),
					"parallel-harness directive outside %s; the allowance is scoped to the bench run harness",
					parallelHarnessPkg)
			}
			checkNoGoroutine(pass, decl)
		}
	}
	return nil
}

func checkNoGoroutine(pass *Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in model code; use sim.Proc for modeled concurrency")
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in model code; use sim.Cond or sim.Queue for modeled waiting")
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in model code; use sim.Queue for modeled queues")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in model code; use sim.Queue for modeled queues")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if _, ok := n.Args[0].(*ast.ChanType); ok {
					pass.Reportf(n.Pos(), "channel creation in model code; use sim.Queue for modeled queues")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel in model code; use sim.Queue for modeled queues")
				}
			}
		}
		return true
	})
}
