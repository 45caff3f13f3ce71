package lint

// seedflow: the flow-sensitive upgrade of the determinism analyzer's rand
// rules. The AST-level check already bans the *global* math/rand functions
// in result packages; seedflow governs where explicitly-constructed
// sources get their seeds. Every seed reaching rand.NewSource / the v2
// generators in a result package must derive from a parameter (a
// config/seed argument, receiver field, or anything the caller controls)
// or from a declared named constant — traced through assignments,
// arithmetic, conversions, and calls. Anything else (a bare magic literal,
// a mutable package variable, an opaque zero-argument call) makes the
// stream's identity untraceable from config, which is exactly how
// "deterministic" runs drift apart.

import (
	"go/ast"
	"go/types"
)

// SeedFlowAnalyzer enforces config-derived RNG seeds in result packages.
var SeedFlowAnalyzer = &Analyzer{
	Name: "seedflow",
	Doc:  "rand sources in result packages must be seeded from config/seed parameters or named constants, traced through assignments",
	Keys: []string{"seed"},
	Run:  runSeedFlow,
}

// seedFuncs maps seeded-source constructors to the indices of their seed
// arguments.
var seedFuncs = map[string][]int{
	"math/rand.NewSource":     {0},
	"math/rand/v2.NewPCG":     {0, 1},
	"math/rand/v2.NewChaCha8": {0},
}

// seedVerdict is the trace lattice, ordered: offending > derived > named
// const > literal.
type seedVerdict int

const (
	seedLiteral    seedVerdict = iota // built only from bare literals
	seedNamedConst                    // involves a declared named constant
	seedDerived                       // derives from a parameter/config value
	seedOffending                     // untraceable / global state
)

func runSeedFlow(p *Pass) {
	if !contains(p.Config.ResultPackages, p.Pkg.ImportPath) {
		return
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := declScope(p.prog(), p.Pkg, fd)
			visitFuncBody(sc, func(n ast.Node, nsc *fnScope) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				q := funcQName(calleeObject(p.Pkg.Info, call))
				argIdxs, ok := seedFuncs[q]
				if !ok {
					return true
				}
				for _, i := range argIdxs {
					if i >= len(call.Args) {
						continue
					}
					arg := call.Args[i]
					switch classifySeed(arg, nsc, 0) {
					case seedDerived, seedNamedConst:
						// Auditable: the seed is caller-controlled or named.
					case seedLiteral:
						p.Reportf(arg.Pos(), "seed",
							"seed for %s is a bare literal: name it as a declared constant or derive it from a config/seed parameter so the stream's identity is auditable (annotate //lint:seed <why> if neither fits)", q)
					case seedOffending:
						p.Reportf(arg.Pos(), "seed",
							"seed for %s does not derive from a config/seed parameter or named constant: untraceable seeds make \"deterministic\" runs drift — thread the seed through config (annotate //lint:seed <why> if audited)", q)
					}
				}
				return true
			})
		}
	}
}

// classifySeed traces a seed expression to its origins.
func classifySeed(e ast.Expr, sc *fnScope, depth int) seedVerdict {
	if depth > 10 {
		return seedOffending
	}
	info := sc.pkg.Info
	e = ast.Unparen(e)

	// Any compile-time constant that mentions a named constant is
	// auditable; a constant built only from bare literals is not.
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if mentionsNamedConst(info, e) {
			return seedNamedConst
		}
		return seedLiteral
	}

	switch e := e.(type) {
	case *ast.Ident:
		return classifySeedIdent(e, sc, depth)
	case *ast.SelectorExpr:
		// A field read: auditable iff its root is (derived from) a
		// parameter — e.g. cfg.Seed, opts.Seed, s.Seed on a receiver.
		if root := baseIdent(e); root != nil {
			v := classifySeedIdent(root, sc, depth)
			if v == seedLiteral {
				return seedOffending // field of a literal-built value: untraceable
			}
			return v
		}
		return seedOffending
	case *ast.BinaryExpr:
		return combineSeed(classifySeed(e.X, sc, depth+1), classifySeed(e.Y, sc, depth+1))
	case *ast.UnaryExpr:
		return classifySeed(e.X, sc, depth+1)
	case *ast.IndexExpr:
		return classifySeed(e.X, sc, depth+1)
	case *ast.CallExpr:
		// Conversions pass through; real calls combine their operands
		// (receiver included), so hash(cfg.Seed) is derived while a
		// zero-operand call is opaque.
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return classifySeed(e.Args[0], sc, depth+1)
			}
			return seedOffending
		}
		var operands []ast.Expr
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn := staticCallee(info, e); fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				operands = append(operands, sel.X)
			}
		}
		operands = append(operands, e.Args...)
		if len(operands) == 0 {
			return seedOffending
		}
		v := seedLiteral
		for _, op := range operands {
			v = combineSeed(v, classifySeed(op, sc, depth+1))
		}
		return v
	}
	return seedOffending
}

// classifySeedIdent traces an identifier: parameters are derived, named
// constants auditable, package variables offending, locals traced through
// their reaching definitions.
func classifySeedIdent(id *ast.Ident, sc *fnScope, depth int) seedVerdict {
	info := sc.pkg.Info
	obj := info.ObjectOf(id)
	switch obj := obj.(type) {
	case *types.Const:
		return seedNamedConst
	case *types.Var:
		if sc.isParam(obj) {
			return seedDerived
		}
		if localVar(obj) == nil {
			return seedOffending // package-level variable: mutable global state
		}
		defs := sc.defsOf(id)
		if len(defs) == 0 {
			return seedOffending
		}
		v := seedLiteral
		for _, d := range defs {
			switch {
			case d.isParam:
				v = combineSeed(v, seedDerived)
			case d.rhs == nil:
				return seedOffending
			default:
				v = combineSeed(v, classifySeed(d.rhs, sc, depth+1))
			}
		}
		return v
	}
	return seedOffending
}

// combineSeed joins two verdicts: offending dominates, then derived, then
// named const, then literal.
func combineSeed(a, b seedVerdict) seedVerdict {
	if a > b {
		return a
	}
	return b
}

// mentionsNamedConst reports whether any identifier inside e resolves to a
// declared constant.
func mentionsNamedConst(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if c, isConst := info.ObjectOf(id).(*types.Const); isConst && c.Pkg() != nil {
				found = true // a declared constant, not a universe literal
			}
		}
		return !found
	})
	return found
}

// baseIdent returns the root identifier of a selector/star/paren chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
