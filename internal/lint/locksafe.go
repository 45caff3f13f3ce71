package lint

// locksafe: a syntactic mutex discipline, rooted in postmortems of the
// serving/sweep layers where a blocked goroutine holding a lock stalls
// every other request. A Lock/RLock is valid in exactly two forms:
//
//  1. the next statement is `defer <same>.Unlock()` (or a deferred closure
//     that unlocks it), and the critical region is the rest of the
//     function;
//  2. the matching Unlock is a later statement in the same statement list,
//     and the region is the statements in between.
//
// A region may not contain a channel send or receive, a select, a range
// over a channel, a pool admission (sim.Pool Run), or a call to a function
// of the same package whose body locks the same mutex field. In the second
// form it also may not leave the region: no return, goto, panic, or break/
// continue that escapes it. Inside a region, the rest of a nested statement
// list after an unlock of the same mutex runs unlocked (the
// `if fail { mu.Unlock(); return }` shape). close is legal: closing never
// blocks. Closures and goroutine bodies are separate functions.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafeAnalyzer enforces the mutex discipline.
var LockSafeAnalyzer = &Analyzer{
	Name: "locksafe",
	Doc:  "a Lock is followed by a deferred Unlock or a later Unlock in the same block, and its region holds no channel op, pool admission, early exit or call that re-locks the same field",
	Keys: []string{"lock"},
	Run:  runLockSafe,
}

func runLockSafe(p *Pass) {
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					lockLists(p, n.Body.List, nil)
				}
			case *ast.FuncLit:
				lockLists(p, n.Body.List, nil)
			}
			return true
		})
	}
}

// lockLists checks every Lock in list and, recursively, in the statement
// lists nested in it (closures excluded). outer holds the tails of the
// enclosing lists, innermost first: what else runs before the function
// returns.
func lockLists(p *Pass, list []ast.Stmt, outer [][]ast.Stmt) {
	for i, s := range list {
		rest := list[i+1:]
		if mu, read, ok := lockStmt(p.Pkg.Info, s, true); ok {
			checkLock(p, s, mu, read, rest, outer)
		}
		tails := append([][]ast.Stmt{rest}, outer...)
		for _, inner := range childLists(s) {
			lockLists(p, inner, tails)
		}
	}
}

// childLists returns the statement lists directly nested in s.
func childLists(s ast.Stmt) [][]ast.Stmt {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{s.List}
	case *ast.LabeledStmt:
		return childLists(s.Stmt)
	case *ast.IfStmt:
		lists := [][]ast.Stmt{s.Body.List}
		if s.Else != nil {
			lists = append(lists, []ast.Stmt{s.Else})
		}
		return lists
	case *ast.ForStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.RangeStmt:
		return [][]ast.Stmt{s.Body.List}
	case *ast.SwitchStmt:
		return clauseLists(s.Body)
	case *ast.TypeSwitchStmt:
		return clauseLists(s.Body)
	case *ast.SelectStmt:
		return clauseLists(s.Body)
	}
	return nil
}

func clauseLists(body *ast.BlockStmt) [][]ast.Stmt {
	var lists [][]ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			lists = append(lists, c.Body)
		case *ast.CommClause:
			lists = append(lists, c.Body)
		}
	}
	return lists
}

// lockStmt reports whether s is `<mu>.Lock()`/`<mu>.RLock()` (lock true)
// or `<mu>.Unlock()`/`<mu>.RUnlock()` (lock false) on a sync mutex, and
// returns the mutex expression.
func lockStmt(info *types.Info, s ast.Stmt, lock bool) (mu ast.Expr, read, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return nil, false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return nil, false, false
	}
	return mutexCall(info, call, lock)
}

// mutexCall is lockStmt for a call expression.
func mutexCall(info *types.Info, call *ast.CallExpr, lock bool) (mu ast.Expr, read, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	name := methodFullName(info, call)
	if lock {
		switch name {
		case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
			return sel.X, false, true
		case "(*sync.RWMutex).RLock":
			return sel.X, true, true
		}
		return nil, false, false
	}
	switch name {
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return sel.X, false, true
	case "(*sync.RWMutex).RUnlock":
		return sel.X, true, true
	}
	return nil, false, false
}

// lockRegion is one critical region being checked.
type lockRegion struct {
	p     *Pass
	label string       // the mutex as written, e.g. "s.mu"
	field types.Object // the mutex field or variable, for the re-lock lookup
	read  bool
	// explicit: closed by a later Unlock in the same list, so leaving the
	// region early skips the unlock.
	explicit bool
	// loops and breakables count the loops (and switch/select statements)
	// entered inside the region: an unlabeled break/continue aimed at one
	// of them stays inside the region.
	loops, breakables int
}

// checkLock classifies the Lock statement s and checks its region.
func checkLock(p *Pass, s ast.Stmt, mu ast.Expr, read bool, rest []ast.Stmt, outer [][]ast.Stmt) {
	r := &lockRegion{p: p, label: types.ExprString(mu), field: mutexObject(p.Pkg.Info, mu), read: read}
	if len(rest) > 0 && r.deferredUnlock(rest[0]) {
		r.list(rest[1:])
		for _, tail := range outer {
			r.list(tail)
		}
		return
	}
	for _, t := range rest {
		if r.unlocks(t) {
			r.explicit = true
			r.list(rest)
			return
		}
	}
	p.Reportf(s.Pos(), "lock",
		"%s is neither followed by `defer %s.%s()` nor unlocked by a later statement of the same block: the critical region cannot be read off the source — restructure it into one of the two forms",
		r.label, r.label, r.unlockName())
}

func (r *lockRegion) unlockName() string {
	if r.read {
		return "RUnlock"
	}
	return "Unlock"
}

// unlocks reports whether s releases this region's mutex.
func (r *lockRegion) unlocks(s ast.Stmt) bool {
	mu, read, ok := lockStmt(r.p.Pkg.Info, s, false)
	return ok && read == r.read && types.ExprString(mu) == r.label
}

// deferredUnlock reports whether s is `defer <mu>.Unlock()` or a deferred
// closure whose body unlocks the mutex.
func (r *lockRegion) deferredUnlock(s ast.Stmt) bool {
	d, ok := s.(*ast.DeferStmt)
	if !ok {
		return false
	}
	if r.unlocks(&ast.ExprStmt{X: d.Call}) {
		return true
	}
	lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok && r.unlocks(s) {
			found = true
		}
		return !found
	})
	return found
}

// list checks a statement list inside the region; after an unlock of the
// same mutex the rest of the list runs unlocked.
func (r *lockRegion) list(stmts []ast.Stmt) {
	for _, s := range stmts {
		if r.unlocks(s) {
			return
		}
		r.node(s)
	}
}

// node checks one node inside the region.
func (r *lockRegion) node(root ast.Node) {
	info := r.p.Pkg.Info
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			r.leave(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.BlockStmt:
			r.list(n.List)
			return false
		case *ast.CaseClause:
			for _, e := range n.List {
				r.node(e)
			}
			r.list(n.Body)
			return false
		case *ast.CommClause:
			if n.Comm != nil {
				r.node(n.Comm)
			}
			r.list(n.Body)
			return false
		case *ast.ForStmt:
			r.loops++
			r.breakables++
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					r.report(n, "range over channel")
				}
			}
			r.loops++
			r.breakables++
		case *ast.SwitchStmt, *ast.TypeSwitchStmt:
			r.breakables++
		case *ast.SelectStmt:
			r.report(n, "select")
			r.breakables++
		case *ast.SendStmt:
			r.report(n, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				r.report(n, "channel receive")
			}
		case *ast.ReturnStmt:
			if r.explicit {
				r.report(n, "return")
			}
		case *ast.BranchStmt:
			if r.explicit && r.escapes(n) {
				r.report(n, n.Tok.String())
			}
		case *ast.CallExpr:
			r.call(n)
		}
		stack = append(stack, n)
		return true
	})
}

// leave undoes node's counters when Inspect leaves n.
func (r *lockRegion) leave(n ast.Node) {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		r.loops--
		r.breakables--
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		r.breakables--
	}
}

// escapes reports whether a branch statement can leave the region: goto
// and labeled branches always may; an unlabeled break or continue only
// when no enclosing loop (or switch/select, for break) inside the region
// catches it.
func (r *lockRegion) escapes(b *ast.BranchStmt) bool {
	switch {
	case b.Tok == token.FALLTHROUGH:
		return false
	case b.Tok == token.GOTO || b.Label != nil:
		return true
	case b.Tok == token.CONTINUE:
		return r.loops == 0
	}
	return r.breakables == 0
}

// call checks a call inside the region: panic (explicit form), pool
// admission, and same-package callees that lock the same mutex field.
func (r *lockRegion) call(call *ast.CallExpr) {
	info := r.p.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin && r.explicit {
			r.report(call, "panic")
		}
		return
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	if fn.Name() == "Run" {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && contains(r.p.Config.PoolTypes, typeQName(recv.Type())) {
			r.report(call, "pool slot acquisition")
			return
		}
	}
	if r.field == nil || fn.Pkg() != r.p.Pkg.Types {
		return
	}
	decl := r.p.Pkg.funcDecl(fn)
	if decl == nil || decl.Body == nil {
		return
	}
	relocks := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if mu, _, ok := mutexCall(info, c, true); ok && mutexObject(info, mu) == r.field {
				relocks = true
			}
		}
		return !relocks
	})
	if relocks {
		r.report(call, "call to "+fn.Name()+" (which locks "+r.field.Name()+" too)")
	}
}

func (r *lockRegion) report(at ast.Node, what string) {
	r.p.Reportf(at.Pos(), "lock",
		"%s while holding %s: a blocked or escaping goroutine keeps the lock and stalls every contender — copy state under the lock, release, then block",
		what, r.label)
}

// mutexObject is the field or variable a mutex expression names: the
// selected field of `x.mu`, or the variable of a bare `mu`.
func mutexObject(info *types.Info, mu ast.Expr) types.Object {
	switch e := ast.Unparen(mu).(type) {
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.Ident:
		return info.Uses[e]
	}
	return nil
}
