package lint

// locksafe: flow-sensitive mutex discipline over the funcCFG. Three
// contracts, all rooted in postmortems of the serving/sweep layers where a
// blocked goroutine holding a lock stalls every other request:
//
//  1. a sync.Mutex/RWMutex must not be held across a blocking channel
//     operation (send, receive, select, range-over-channel) — the server
//     and sweep paths all copy state under the lock, release, then block;
//  2. it must not be held across a sim.Pool slot acquisition (the slot
//     wait can be unbounded under saturation) or across a call that may
//     re-lock the same receiver's mutex (self-deadlock);
//  3. every path from Lock() to return must unlock (explicitly or via a
//     defer registered on that path).
//
// The analysis is a forward may-held dataflow: the state maps each mutex
// (root variable object + field path, write vs read mode) to held/deferred
// bits, joined by union over CFG edges. Deferred unlocks are modeled at
// the DeferStmt node, so a return *before* the defer registers is still a
// missing-unlock path. Closure bodies are analyzed as separate functions;
// locks do not propagate across closure boundaries.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockSafeAnalyzer enforces the mutex discipline contracts.
var LockSafeAnalyzer = &Analyzer{
	Name: "locksafe",
	Doc:  "mutex held across channel ops/pool acquisition/re-locking calls, or not released on an early return",
	Keys: []string{"lock"},
	Run:  runLockSafe,
}

type lockOp int

const (
	lockOpNone lockOp = iota
	lockOpLock
	lockOpUnlock
	lockOpRLock
	lockOpRUnlock
)

// mutexOp classifies call as a sync.Mutex/RWMutex lock-state transition
// and returns the receiver expression.
func mutexOp(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOpNone, nil
	}
	switch methodFullName(info, call) {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		return lockOpLock, sel.X
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return lockOpUnlock, sel.X
	case "(*sync.RWMutex).RLock":
		return lockOpRLock, sel.X
	case "(*sync.RWMutex).RUnlock":
		return lockOpRUnlock, sel.X
	}
	return lockOpNone, nil
}

// lockKey identifies one mutex within a function: the root object of its
// selector chain plus the field path ("s" + ".mu"), and the lock mode.
type lockKey struct {
	root types.Object
	path string
	read bool
}

func (k lockKey) label() string {
	if k.root == nil {
		return "<mutex>" + k.path
	}
	return k.root.Name() + k.path
}

const (
	lockHeld     uint8 = 1 << iota // may be locked
	lockDeferred                   // an unlock is defer-registered
)

type lockState map[lockKey]uint8

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// join unions src into dst (may-analysis) and reports change.
func (s lockState) join(src lockState) bool {
	changed := false
	for k, v := range src {
		if s[k]|v != s[k] {
			s[k] |= v
			changed = true
		}
	}
	return changed
}

// heldKeys returns the held-but-relevant keys sorted for deterministic
// messages.
func (s lockState) heldKeys() []lockKey {
	var out []lockKey
	for k, v := range s {
		if v&lockHeld != 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label() < out[j].label() })
	return out
}

func runLockSafe(p *Pass) {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			analyzeLocks(p, fd.Body)
			// Closures are separate functions for lock purposes.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeLocks(p, lit.Body)
				}
				return true
			})
		}
	}
}

func analyzeLocks(p *Pass, body *ast.BlockStmt) {
	// Cheap pre-screen: no Lock call, nothing to analyze.
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, _ := mutexOp(p.Pkg.Info, call); op == lockOpLock || op == lockOpRLock {
				found = true
			}
		}
		return true
	})
	if !found {
		return
	}

	c := p.prog().cfgFor(body)
	reachable := c.reachableBlocks()
	in := map[*cfgBlock]lockState{}
	for _, blk := range reachable {
		in[blk] = lockState{}
	}
	work := append([]*cfgBlock(nil), reachable...)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		state := in[blk].clone()
		for _, n := range blk.nodes {
			applyLockNode(p, state, n, nil)
		}
		for _, s := range blk.succs {
			if dst, ok := in[s]; ok && dst.join(state) {
				work = append(work, s)
			}
		}
	}

	// Report pass: replay each reachable block once with hazard reporting.
	for _, blk := range reachable {
		state := in[blk].clone()
		for _, n := range blk.nodes {
			applyLockNode(p, state, n, func(pos ast.Node, what string, keys []lockKey) {
				p.Reportf(pos.Pos(), "lock", "%s while holding %s: a blocked goroutine keeps the lock and stalls every contender — copy state under the lock, release, then block (annotate //lint:lock <why> if the wait is provably bounded)",
					what, lockLabels(keys))
			})
		}
		// Exit discipline at return / fall-off-the-end.
		exiting := false
		for _, s := range blk.succs {
			if s == c.exit {
				exiting = true
			}
		}
		if !exiting {
			continue
		}
		pos := body.Rbrace
		if r := blk.terminalReturn(); r != nil {
			pos = r.Pos()
		} else if len(blk.nodes) > 0 {
			if es, ok := blk.nodes[len(blk.nodes)-1].(*ast.ExprStmt); ok && isTerminalCall(es.X) {
				continue // panic/os.Exit: not a return path
			}
		}
		var leaked []lockKey
		for _, k := range state.heldKeys() {
			if state[k]&lockDeferred == 0 {
				leaked = append(leaked, k)
			}
		}
		if len(leaked) > 0 {
			p.Reportf(pos, "lock", "%s may still be held at this return: an early-return path skips the unlock — release before returning or defer the unlock right after locking",
				lockLabels(leaked))
		}
	}
}

// applyLockNode advances state over one CFG node, reporting hazards via
// report when non-nil. FuncLit and GoStmt subtrees are skipped: closures
// and goroutines do not run under this function's locks.
func applyLockNode(p *Pass, state lockState, n ast.Node, report func(ast.Node, string, []lockKey)) {
	info := p.Pkg.Info
	hazard := func(at ast.Node, what string) {
		if report == nil {
			return
		}
		if held := state.heldKeys(); len(held) > 0 {
			report(at, what, held)
		}
	}

	switch n := n.(type) {
	case *ast.SelectStmt: // composite marker: the select blocks here
		hazard(n, "select")
		return
	case *ast.RangeStmt: // composite marker: header; a channel range blocks
		if _, ok := info.Types[n.X].Type.Underlying().(*types.Chan); ok {
			hazard(n, "range over channel")
		}
		return
	case *ast.DeferStmt:
		markDeferredUnlocks(info, n.Call, state)
		return
	case *ast.GoStmt:
		return
	}

	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			markDeferredUnlocks(info, m.Call, state)
			return false
		case *ast.SendStmt:
			hazard(m, "channel send")
		case *ast.UnaryExpr:
			if m.Op.String() == "<-" {
				hazard(m, "channel receive")
			}
		case *ast.CallExpr:
			if op, recv := mutexOp(info, m); op != lockOpNone {
				if root, path, ok := rootPath(info, recv); ok {
					switch op {
					case lockOpLock:
						state[lockKey{root, path, false}] |= lockHeld
					case lockOpRLock:
						state[lockKey{root, path, true}] |= lockHeld
					case lockOpUnlock:
						delete(state, lockKey{root, path, false})
					case lockOpRUnlock:
						delete(state, lockKey{root, path, true})
					}
				}
				return true
			}
			if poolAcquire(p.Config, info, m) {
				hazard(m, "pool slot acquisition")
				return true
			}
			checkRelock(p, state, m, report)
		}
		return true
	})
}

// markDeferredUnlocks flags mutexes whose unlock is defer-registered by
// call — either `defer mu.Unlock()` directly or unlock calls inside a
// deferred closure.
func markDeferredUnlocks(info *types.Info, call *ast.CallExpr, state lockState) {
	mark := func(c *ast.CallExpr) {
		op, recv := mutexOp(info, c)
		read := false
		switch op {
		case lockOpRUnlock:
			read = true
		case lockOpUnlock:
		default:
			return
		}
		if root, path, ok := rootPath(info, recv); ok {
			k := lockKey{root, path, read}
			state[k] |= lockDeferred
		}
	}
	mark(call)
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				mark(c)
			}
			return true
		})
	}
}

// checkRelock reports a call to a method whose lock summary says it locks
// a mutex this function currently holds on the same receiver chain.
func checkRelock(p *Pass, state lockState, call *ast.CallExpr, report func(ast.Node, string, []lockKey)) {
	if report == nil || len(state) == 0 {
		return
	}
	fn := staticCallee(p.Pkg.Info, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	root, base, ok := rootPath(p.Pkg.Info, sel.X)
	if !ok {
		return
	}
	sum := p.prog().lockSummary(fn)
	for path := range sum {
		for k, v := range state {
			if v&lockHeld != 0 && k.root == root && k.path == base+path && !k.read {
				report(call, fmt.Sprintf("call to %s (which locks %s)", fn.Name(), k.label()), []lockKey{k})
				return
			}
		}
	}
}

// lockSummary computes, memoized, the set of receiver-relative mutex field
// paths a method may lock — directly or through calls to other methods on
// the same receiver (closures excluded: their execution is deferred to an
// unknown time). Used by locksafe's re-lock check.
func (ix *progIndex) lockSummary(fn *types.Func) map[string]bool {
	if s, ok := ix.lockSums[fn]; ok {
		return s
	}
	if ix.lockBusy[fn] {
		return nil // recursion: the cycle adds nothing new
	}
	ix.lockBusy[fn] = true
	defer delete(ix.lockBusy, fn)

	paths := map[string]bool{}
	ix.lockSums[fn] = paths
	src := ix.srcOf(fn)
	if src == nil || src.decl.Recv == nil || len(src.decl.Recv.List) == 0 || len(src.decl.Recv.List[0].Names) == 0 {
		return paths
	}
	recvObj := src.pkg.Info.Defs[src.decl.Recv.List[0].Names[0]]
	if recvObj == nil {
		return paths
	}
	info := src.pkg.Info
	ast.Inspect(src.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, recv := mutexOp(info, call); op == lockOpLock || op == lockOpRLock {
			if root, path, ok := rootPath(info, recv); ok && root == recvObj {
				paths[path] = true
			}
			return true
		}
		if callee := staticCallee(info, call); callee != nil && callee != fn {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if root, base, ok := rootPath(info, sel.X); ok && root == recvObj && base == "" {
					for sub := range ix.lockSummary(callee) {
						paths[sub] = true
					}
				}
			}
		}
		return true
	})
	return paths
}

func lockLabels(keys []lockKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.label()
	}
	return strings.Join(parts, ", ")
}

// poolAcquire reports whether call waits for worker-pool admission: Run on
// a configured pool type.
func poolAcquire(cfg Config, info *types.Info, call *ast.CallExpr) bool {
	fn := staticCallee(info, call)
	if fn == nil || fn.Name() != "Run" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && contains(cfg.PoolTypes, typeQName(recv.Type()))
}
