package lint

// leaksafe: goroutines launched in result-producing packages must have a
// join or cancel path. A fire-and-forget goroutine in a result package
// either drops work (the run completes before the goroutine contributes,
// so output depends on scheduling) or outlives the run (leaking into the
// next benchmark's measurements). Accepted join/cancel shapes, matching
// the repo's worker idioms:
//
//   - sync.WaitGroup.Done (almost always deferred) — the launcher Waits;
//   - a send on / close of a channel — someone receives the completion;
//   - a receive, select, or range over a channel — the goroutine drains a
//     work queue that closing terminates, or watches a done/ctx channel.
//
// Pool work needs no goroutine of its own: sim.Pool.Run launches and joins
// its job goroutines itself.
//
// The check is per-goroutine-body and syntactic over the resolved body: a
// closure literal, or the declaration of a function of the same package.
// A goroutine whose body cannot be resolved is a conservative finding.

import (
	"go/ast"
	"go/types"
)

// LeakSafeAnalyzer enforces the goroutine join/cancel contract.
var LeakSafeAnalyzer = &Analyzer{
	Name: "leaksafe",
	Doc:  "goroutines in result-producing packages need a join/cancel path (WaitGroup or channel)",
	Keys: []string{"leak"},
	Run:  runLeakSafe,
}

func runLeakSafe(p *Pass) {
	if !contains(p.Config.ResultPackages, p.Pkg.ImportPath) {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goroutineBody(p, g.Call)
			if body == nil {
				p.Reportf(g.Pos(), "leak",
					"cannot resolve this goroutine's body to audit its join/cancel path — launch a closure or a function of this package, or annotate //lint:leak <why>")
				return true
			}
			if !hasJoinPath(p, body) {
				p.Reportf(g.Pos(), "leak",
					"goroutine has no join or cancel path (no WaitGroup.Done or channel operation): its work can be dropped or outlive the run — join it, or annotate //lint:leak <why> if it is joined externally")
			}
			return true
		})
	}
}

// goroutineBody resolves the launched function's body: a closure literal
// directly, or the declaration of a statically-called function of this
// package.
func goroutineBody(p *Pass, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	if fn := staticCallee(p.Pkg.Info, call); fn != nil {
		if decl := p.Pkg.funcDecl(fn); decl != nil {
			return decl.Body
		}
	}
	return nil
}

// hasJoinPath scans body (nested closures included — a deferred
// wg.Done closure still joins) for any accepted join/cancel shape.
func hasJoinPath(p *Pass, body *ast.BlockStmt) bool {
	info := p.Pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			switch methodFullName(info, n) {
			case "(*sync.WaitGroup).Done", "(*sync.WaitGroup).Wait":
				found = true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
