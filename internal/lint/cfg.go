package lint

// Control-flow graphs for the flow-sensitive analyzers (locksafe, and the
// reaching-definitions pass under seedflow/cachekey). Stdlib-only, like
// the rest of the suite: built straight over go/ast, no x/tools.
//
// A funcCFG is a graph of basic blocks per function *body* (FuncDecl or
// FuncLit — closures get their own CFGs; a closure's execution time is
// unknown, so its statements must not appear inline in the enclosing
// flow). Each block holds an ordered list of ast.Nodes:
//
//   - plain statements (assignments, calls, sends, defers, go, returns)
//     appear as themselves and execute atomically within the block;
//   - control-test expressions (if/for conditions, switch tags) appear as
//     bare ast.Expr nodes in the block that evaluates them;
//   - *ast.RangeStmt and *ast.SelectStmt appear as composite markers: the
//     marker node means "the range/select header executes here", and
//     analyses must not descend into the marker's clause/body statements
//     (those live in successor blocks).
//
// Deferred calls are ordinary *ast.DeferStmt nodes in flow order, so a
// dataflow pass sees exactly on which paths a defer was registered. Every
// return (and the fall-off-the-end exit) has an edge to a synthetic
// empty exit block, giving "at function exit" checks a single join point.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	body   *ast.BlockStmt
	blocks []*cfgBlock
	entry  *cfgBlock
	exit   *cfgBlock // synthetic; preds are the return/fall-off blocks
}

// returnsTo reports whether b's terminal node is an explicit return
// (otherwise an edge into exit means control fell off the end).
func (b *cfgBlock) terminalReturn() *ast.ReturnStmt {
	if len(b.nodes) == 0 {
		return nil
	}
	r, _ := b.nodes[len(b.nodes)-1].(*ast.ReturnStmt)
	return r
}

type cfgBuilder struct {
	c *funcCFG
	// frames tracks enclosing breakable/continuable constructs, innermost
	// last.
	frames []cfgFrame
	// labelBlocks maps label names to their target blocks so goto and
	// labeled break/continue resolve even on forward references.
	labelBlocks map[string]*cfgBlock
}

type cfgFrame struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select frames
}

// buildCFG constructs the CFG for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{
		c:           &funcCFG{body: body},
		labelBlocks: map[string]*cfgBlock{},
	}
	b.c.exit = b.newBlock() // index 0 by convention
	b.c.entry = b.newBlock()
	end := b.stmtList(body.List, b.c.entry, "")
	if end != nil {
		b.edge(end, b.c.exit)
	}
	return b.c
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.c.blocks)}
	b.c.blocks = append(b.c.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

func (b *cfgBuilder) labelBlock(name string) *cfgBlock {
	if blk, ok := b.labelBlocks[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labelBlocks[name] = blk
	return blk
}

// frameFor finds the innermost frame matching label ("" = innermost of the
// right kind; needLoop restricts to loops, for continue).
func (b *cfgBuilder) frameFor(label string, needLoop bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *cfgBlock, label string) *cfgBlock {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = label
		}
		cur = b.stmt(s, cur, lbl)
		if cur == nil && i < len(list)-1 {
			// Unreachable trailing code (after return/break): keep building
			// into a fresh dead block so every statement lives in some block.
			cur = b.newBlock()
		}
	}
	return cur
}

// stmt wires s into the graph starting at cur and returns the block where
// control continues, or nil when control cannot fall through s. label is
// the pending label when s is the direct body of a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock, label string) *cfgBlock {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return cur

	case *ast.BlockStmt:
		return b.stmtList(s.List, cur, "")

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(cur, lb)
		return b.stmt(s.Stmt, lb, s.Label.Name)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.c.exit)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if f := b.frameFor(labelName(s.Label), false); f != nil {
				b.edge(cur, f.breakTo)
			}
			return nil
		case token.CONTINUE:
			if f := b.frameFor(labelName(s.Label), true); f != nil {
				b.edge(cur, f.continueTo)
			}
			return nil
		case token.GOTO:
			if s.Label != nil {
				b.edge(cur, b.labelBlock(s.Label.Name))
			}
			return nil
		case token.FALLTHROUGH:
			// The enclosing switch clause wires fallthrough edges; as a
			// statement it has no effect of its own.
			return cur
		}
		return cur

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, "")
		}
		cur.nodes = append(cur.nodes, s.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenEnd := b.stmtList(s.Body.List, thenB, "")
		after := b.newBlock()
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseEnd := b.stmt(s.Else, elseB, "")
			if elseEnd != nil {
				b.edge(elseEnd, after)
			}
		} else {
			b.edge(cur, after)
		}
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if len(after.preds) == 0 {
			return nil
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, "")
		}
		cond := b.newBlock()
		b.edge(cur, cond)
		after := b.newBlock()
		if s.Cond != nil {
			cond.nodes = append(cond.nodes, s.Cond)
			b.edge(cond, after)
		}
		contTo := cond
		var post *cfgBlock
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		body := b.newBlock()
		b.edge(cond, body)
		b.frames = append(b.frames, cfgFrame{label: label, breakTo: after, continueTo: contTo})
		bodyEnd := b.stmtList(s.Body.List, body, "")
		b.frames = b.frames[:len(b.frames)-1]
		if bodyEnd != nil {
			b.edge(bodyEnd, contTo)
		}
		if post != nil {
			post = b.stmt(s.Post, post, "")
			if post != nil {
				b.edge(post, cond)
			}
		}
		if len(after.preds) == 0 {
			return nil // for {} with no break: nothing falls through
		}
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(cur, head)
		head.nodes = append(head.nodes, s) // composite marker: header only
		after := b.newBlock()
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.frames = append(b.frames, cfgFrame{label: label, breakTo: after, continueTo: head})
		bodyEnd := b.stmtList(s.Body.List, body, "")
		b.frames = b.frames[:len(b.frames)-1]
		if bodyEnd != nil {
			b.edge(bodyEnd, head)
		}
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, "")
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(s.Body.List, cur, label, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			var tests []ast.Node
			for _, e := range cc.List {
				tests = append(tests, e)
			}
			return tests, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, "")
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(s.Body.List, cur, label, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return nil, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		cur.nodes = append(cur.nodes, s) // composite marker: the select itself
		after := b.newBlock()
		b.frames = append(b.frames, cfgFrame{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(cur, cb)
			if cc.Comm != nil {
				cb.nodes = append(cb.nodes, cc.Comm)
			}
			if end := b.stmtList(cc.Body, cb, ""); end != nil {
				b.edge(end, after)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(after.preds) == 0 {
			return nil
		}
		return after

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isTerminalCall(s.X) {
			b.edge(cur, b.c.exit) // defers still run after panic
			return nil
		}
		return cur

	default:
		// Assign, Decl, IncDec, Send, Defer, Go, and anything else without
		// internal control flow: a plain node in the current block.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses wires the clause blocks of a switch/type-switch: every
// clause is a successor of the dispatch block, fallthrough chains to the
// next clause, and a missing default adds a direct edge past the switch.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, cur *cfgBlock, label string,
	split func(ast.Stmt) (tests []ast.Node, body []ast.Stmt, isDefault bool)) *cfgBlock {
	after := b.newBlock()
	b.frames = append(b.frames, cfgFrame{label: label, breakTo: after})
	blocks := make([]*cfgBlock, len(clauses))
	bodies := make([][]ast.Stmt, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		tests, body, isDefault := split(c)
		hasDefault = hasDefault || isDefault
		cb := b.newBlock()
		b.edge(cur, cb)
		cb.nodes = append(cb.nodes, tests...)
		blocks[i] = cb
		bodies[i] = body
	}
	for i := range clauses {
		end := b.stmtList(bodies[i], blocks[i], "")
		if end == nil {
			continue
		}
		if n := len(bodies[i]); n > 0 {
			if br, ok := bodies[i][n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(blocks) {
				b.edge(end, blocks[i+1])
				continue
			}
		}
		b.edge(end, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		b.edge(cur, after)
	}
	if len(after.preds) == 0 {
		return nil
	}
	return after
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// isTerminalCall reports whether expr is a call that never returns:
// builtin panic, or os.Exit / runtime.Goexit by selector shape. (Shape
// match is enough — a false positive merely prunes an edge in analyses
// that are conservative anyway.)
func isTerminalCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return (x.Name == "os" && fun.Sel.Name == "Exit") ||
				(x.Name == "runtime" && fun.Sel.Name == "Goexit")
		}
	}
	return false
}

// reachableBlocks returns the blocks reachable from entry in index order.
func (c *funcCFG) reachableBlocks() []*cfgBlock {
	seen := make([]bool, len(c.blocks))
	var stack []*cfgBlock
	push := func(b *cfgBlock) {
		if !seen[b.index] {
			seen[b.index] = true
			stack = append(stack, b)
		}
	}
	push(c.entry)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.succs {
			push(s)
		}
	}
	var out []*cfgBlock
	for _, b := range c.blocks {
		if seen[b.index] {
			out = append(out, b)
		}
	}
	return out
}
