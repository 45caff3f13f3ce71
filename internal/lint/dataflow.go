package lint

// Dataflow machinery shared by the flow-sensitive analyzers:
//
//   - progIndex: a whole-program view over every package the Loader has in
//     memory (the lint targets plus every module-internal dependency pulled
//     in during type-checking), mapping *types.Func objects to their
//     declarations. This is what makes the bounded interprocedural passes
//     (locksafe re-lock summaries, cachekey producer closures) possible
//     without x/tools: the source importer already parsed the dependency
//     ASTs, the index just keeps them addressable.
//   - reaching definitions: a classic forward gen/kill pass over a funcCFG,
//     answering "which assignments may this identifier's value come from" —
//     the tracing primitive under seedflow.
//   - fnScope: the lexical chain of function bodies (FuncDecl plus nested
//     FuncLits) so closures can resolve free variables against their
//     enclosing function's definitions. Closure bodies get flow-INsensitive
//     answers for free variables (all definitions in the enclosing body),
//     because a closure's execution time is unknown.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// funcSrc is a function declaration with the package that owns it.
type funcSrc struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// progIndex addresses every function body the loader parsed, with caches
// for the derived per-function artifacts (CFGs, reaching defs, lock
// summaries).
type progIndex struct {
	fns       map[*types.Func]*funcSrc
	pkgByPath map[string]*Package

	cfgs     map[*ast.BlockStmt]*funcCFG
	defs     map[*ast.BlockStmt]*defsInfo
	lockSums map[*types.Func]map[string]bool
	lockBusy map[*types.Func]bool
}

// buildProgIndex indexes the given packages plus everything their loaders
// have memoized (module-internal dependencies).
func buildProgIndex(pkgs []*Package) *progIndex {
	ix := &progIndex{
		fns:       map[*types.Func]*funcSrc{},
		pkgByPath: map[string]*Package{},
		cfgs:      map[*ast.BlockStmt]*funcCFG{},
		defs:      map[*ast.BlockStmt]*defsInfo{},
		lockSums:  map[*types.Func]map[string]bool{},
		lockBusy:  map[*types.Func]bool{},
	}
	seen := map[*Package]bool{}
	var all []*Package
	add := func(p *Package) {
		if p != nil && !seen[p] {
			seen[p] = true
			all = append(all, p)
			ix.pkgByPath[p.ImportPath] = p
		}
	}
	for _, p := range pkgs {
		add(p)
		if p.loader != nil {
			paths := make([]string, 0, len(p.loader.pkgs))
			for path := range p.loader.pkgs {
				paths = append(paths, path)
			}
			sort.Strings(paths) // deterministic index order
			for _, path := range paths {
				add(p.loader.pkgs[path])
			}
		}
	}
	for _, p := range all {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					ix.fns[fn] = &funcSrc{decl: fd, pkg: p}
				}
			}
		}
	}
	return ix
}

// srcOf returns the declaration of fn if its source is in the module.
func (ix *progIndex) srcOf(fn *types.Func) *funcSrc {
	return ix.fns[fn]
}

// cfgFor returns the (cached) CFG of a function body.
func (ix *progIndex) cfgFor(body *ast.BlockStmt) *funcCFG {
	if c, ok := ix.cfgs[body]; ok {
		return c
	}
	c := buildCFG(body)
	ix.cfgs[body] = c
	return c
}

// staticCallee resolves the *types.Func a call invokes, including methods;
// nil for builtins, conversions, and indirect calls through values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := calleeObject(info, call).(*types.Func)
	return fn
}

// rootPath decomposes a selector chain x.f.g into its root identifier's
// object and the field path ".f.g". ok is false when the base is not a
// plain identifier (call results, index expressions...).
func rootPath(info *types.Info, expr ast.Expr) (root types.Object, path string, ok bool) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return info.ObjectOf(e), path, true
		case *ast.SelectorExpr:
			path = "." + e.Sel.Name + path
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		default:
			return nil, "", false
		}
	}
}

// ---- function scopes -------------------------------------------------------

// fnScope is one function body in a lexical chain.
type fnScope struct {
	parent *fnScope
	pkg    *Package
	body   *ast.BlockStmt
	params map[types.Object]bool
	ix     *progIndex
}

// newFnScope builds the scope of a declared function or closure; nil recv
// for plain functions and closures.
func newFnScope(ix *progIndex, pkg *Package, parent *fnScope, body *ast.BlockStmt, ftype *ast.FuncType, recv *ast.FieldList) *fnScope {
	sc := &fnScope{parent: parent, pkg: pkg, body: body, params: map[types.Object]bool{}, ix: ix}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					sc.params[obj] = true
				}
			}
		}
	}
	addFields(recv)
	if ftype != nil {
		addFields(ftype.Params)
		addFields(ftype.Results)
	}
	return sc
}

// declScope builds the scope for a top-level function declaration.
func declScope(ix *progIndex, pkg *Package, decl *ast.FuncDecl) *fnScope {
	return newFnScope(ix, pkg, nil, decl.Body, decl.Type, decl.Recv)
}

// isParam reports whether obj is a parameter (or receiver or named result)
// of this function or any lexically enclosing one.
func (sc *fnScope) isParam(obj types.Object) bool {
	for s := sc; s != nil; s = s.parent {
		if s.params[obj] {
			return true
		}
	}
	return false
}

// defsInfo returns the cached reaching-definitions analysis of sc's body.
func (sc *fnScope) defsInfo() *defsInfo {
	if d, ok := sc.ix.defs[sc.body]; ok {
		return d
	}
	d := buildDefs(sc.ix.cfgFor(sc.body), sc.pkg.Info, sc.body)
	sc.ix.defs[sc.body] = d
	return d
}

// defsOf answers which definitions may produce the value of id, searching
// the scope chain: flow-sensitive in the innermost scope, flow-insensitive
// (all definitions) across closure boundaries.
func (sc *fnScope) defsOf(id *ast.Ident) []defSite {
	obj := sc.pkg.Info.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if sc.isParam(obj) {
		return []defSite{{isParam: true}}
	}
	if sites := sc.defsInfo().reachingAt(id); sites != nil {
		return sites
	}
	for s := sc.parent; s != nil; s = s.parent {
		if sites := s.defsInfo().allOf(obj); sites != nil {
			return sites
		}
	}
	return nil
}

// visitFuncBody walks sc's body tracking lexical scope: visit is called for
// every node with the innermost enclosing scope; entering a FuncLit pushes
// a child scope. Return false from visit to prune the subtree.
func visitFuncBody(sc *fnScope, visit func(n ast.Node, sc *fnScope) bool) {
	var walk func(n ast.Node, sc *fnScope)
	walk = func(n ast.Node, sc *fnScope) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			if lit, ok := m.(*ast.FuncLit); ok {
				if !visit(lit, sc) {
					return false
				}
				walk(lit.Body, newFnScope(sc.ix, sc.pkg, sc, lit.Body, lit.Type, nil))
				return false
			}
			return visit(m, sc)
		})
	}
	walk(sc.body, sc)
}

// ---- reaching definitions --------------------------------------------------

// defSite is one definition of a variable: the assigned expression when the
// assignment is 1:1, the shared call/comma-ok expression when it is 1:n
// (`v, err := f()` — every LHS derives from that one RHS), nil otherwise
// (range variables, ++/--, op=); isParam marks the virtual entry definition
// of a parameter or a variable free in this body.
type defSite struct {
	rhs     ast.Expr
	isParam bool
}

// defsInfo is the result of a reaching-definitions pass over one body.
type defsInfo struct {
	// flat indexes every definition in the whole body, closures included,
	// flow-insensitively (for cross-closure queries).
	flat map[types.Object][]defSite
	// reach maps each identifier use to the definitions reaching it.
	reach map[*ast.Ident][]defSite
}

func (d *defsInfo) reachingAt(id *ast.Ident) []defSite { return d.reach[id] }
func (d *defsInfo) allOf(obj types.Object) []defSite   { return d.flat[obj] }

// defsBuilder numbers definition sites and runs the gen/kill fixpoint.
type defsBuilder struct {
	info  *types.Info
	out   *defsInfo
	sites []defSite
	objOf []types.Object
	byObj map[types.Object][]int
}

// localVar returns obj as a local (non-field, non-package-scope) variable.
func localVar(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

func (b *defsBuilder) addSite(id *ast.Ident, site defSite) int {
	if id == nil || id.Name == "_" {
		return -1
	}
	obj := b.info.ObjectOf(id)
	if localVar(obj) == nil {
		return -1
	}
	n := len(b.sites)
	b.sites = append(b.sites, site)
	b.objOf = append(b.objOf, obj)
	b.byObj[obj] = append(b.byObj[obj], n)
	return n
}

// assignRHS returns the expression the i-th LHS of an assignment derives
// from: its paired RHS when 1:1, the single shared RHS of a tuple
// assignment (`v, err := f()`), nil for op= forms (the old value also
// contributes, so no single origin expression exists).
func assignRHS(n *ast.AssignStmt, i int) ast.Expr {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		return nil
	}
	if len(n.Lhs) == len(n.Rhs) {
		return n.Rhs[i]
	}
	if len(n.Rhs) == 1 {
		return n.Rhs[0]
	}
	return nil
}

// siteDefs lists the definition sites a single CFG node performs.
func (b *defsBuilder) siteDefs(n ast.Node) []int {
	var out []int
	add := func(i int) {
		if i >= 0 {
			out = append(out, i)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			add(b.addSite(id, defSite{rhs: assignRHS(n, i)}))
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for i, name := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					}
					add(b.addSite(name, defSite{rhs: rhs}))
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			add(b.addSite(id, defSite{}))
		}
	case *ast.RangeStmt:
		if id, ok := n.Key.(*ast.Ident); ok {
			add(b.addSite(id, defSite{}))
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			add(b.addSite(id, defSite{}))
		}
	}
	return out
}

// buildDefs runs the reaching-definitions pass over c.
func buildDefs(c *funcCFG, info *types.Info, body *ast.BlockStmt) *defsInfo {
	b := &defsBuilder{
		info:  info,
		out:   &defsInfo{flat: map[types.Object][]defSite{}, reach: map[*ast.Ident][]defSite{}},
		byObj: map[types.Object][]int{},
	}

	// Number the definition sites, per node, in block order.
	nodeDefs := map[ast.Node][]int{}
	for _, blk := range c.blocks {
		for _, n := range blk.nodes {
			nodeDefs[n] = b.siteDefs(n)
		}
	}

	// Flat index: every assignment anywhere in the body, closures included.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := info.ObjectOf(id); localVar(obj) != nil {
					b.out.flat[obj] = append(b.out.flat[obj], defSite{rhs: assignRHS(n, i)})
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if name.Name == "_" {
					continue
				}
				if obj := info.ObjectOf(name); localVar(obj) != nil {
					var rhs ast.Expr
					if len(n.Values) == len(n.Names) {
						rhs = n.Values[i]
					}
					b.out.flat[obj] = append(b.out.flat[obj], defSite{rhs: rhs})
				}
			}
		}
		return true
	})

	// Fixpoint over def-site bitsets.
	words := (len(b.sites) + 63) / 64
	newBits := func() []uint64 { return make([]uint64, words) }
	union := func(dst, src []uint64) bool {
		changed := false
		for i := range dst {
			if v := dst[i] | src[i]; v != dst[i] {
				dst[i] = v
				changed = true
			}
		}
		return changed
	}
	transfer := func(state []uint64, n ast.Node) {
		for _, di := range nodeDefs[n] {
			for _, other := range b.byObj[b.objOf[di]] {
				state[other/64] &^= 1 << (other % 64)
			}
			state[di/64] |= 1 << (di % 64)
		}
	}

	reachable := c.reachableBlocks()
	in := map[*cfgBlock][]uint64{}
	for _, blk := range reachable {
		in[blk] = newBits()
	}
	work := append([]*cfgBlock(nil), reachable...)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		state := newBits()
		copy(state, in[blk])
		for _, n := range blk.nodes {
			transfer(state, n)
		}
		for _, s := range blk.succs {
			if dst, ok := in[s]; ok && union(dst, state) {
				work = append(work, s)
			}
		}
	}

	// Record the reaching set at every identifier use; within a node, uses
	// read the state before the node's own definitions take effect.
	recordUse := func(state []uint64, id *ast.Ident) {
		obj := b.info.ObjectOf(id)
		if localVar(obj) == nil {
			return
		}
		if _, seen := b.out.reach[id]; seen {
			return
		}
		ids := b.byObj[obj]
		if len(ids) == 0 {
			return // no definition in this body: a parameter or free variable
		}
		out := []defSite{}
		for _, di := range ids {
			if state[di/64]&(1<<(di%64)) != 0 {
				out = append(out, b.sites[di])
			}
		}
		b.out.reach[id] = out
	}
	for _, blk := range reachable {
		state := newBits()
		copy(state, in[blk])
		for _, n := range blk.nodes {
			scanUses := n
			if r, ok := n.(*ast.RangeStmt); ok {
				scanUses = r.X // composite marker: only the header runs here
			}
			if _, ok := n.(*ast.SelectStmt); ok {
				scanUses = nil // comm clauses live in successor blocks
			}
			if scanUses != nil {
				ast.Inspect(scanUses, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.FuncLit:
						return false
					case *ast.Ident:
						recordUse(state, m)
					}
					return true
				})
			}
			transfer(state, n)
		}
	}
	return b.out
}

// ---- qualified-name helpers ------------------------------------------------

// typeQName renders a (possibly pointer-wrapped) named type as
// "import/path.Name", or "".
func typeQName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// methodFullName returns go/types' FullName for the callee when the call
// invokes a method, e.g. "(*sync.Mutex).Lock"; "" otherwise.
func methodFullName(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return ""
	}
	return fn.FullName()
}

// splitQName splits "import/path.Name" at the last dot.
func splitQName(q string) (pkgPath, name string) {
	i := strings.LastIndex(q, ".")
	if i < 0 {
		return "", q
	}
	return q[:i], q[i+1:]
}
